package fs

// Bytes returns the bytes currently cached.
func (c *BufferCache) Bytes() int64 { return c.bytes }

// DirtyBytes returns the bytes of dirty data currently cached.
func (c *BufferCache) DirtyBytes() int64 { return c.dirty }

// Resident reports whether blk is cached, without disturbing LRU order.
func (c *BufferCache) Resident(blk int64) bool {
	_, ok := c.entries[blk]
	return ok
}

// Exists reports whether a path resolves.
func (f *FileSystem) Exists(path string) bool {
	_, err := f.lookup(path)
	return err == nil
}
