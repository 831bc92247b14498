package bench

// MemSweepSizes returns the buffer sizes the memory benchmarks sweep:
// four points per octave from 64 bytes to 8 MB, plus ragged sizes (2^k-1)
// at the low end that land 15 bytes in the tail loop and reproduce the
// §6.4 dips.
func MemSweepSizes() []int {
	var sizes []int
	for base := 64; base <= 4<<20; base *= 2 {
		for _, num := range []int{4, 5, 6, 7} {
			s := base / 4 * num
			sizes = append(sizes, s)
		}
	}
	sizes = append(sizes, 8<<20)
	for k := 7; k <= 12; k++ {
		sizes = append(sizes, 1<<k-1)
	}
	// Keep ascending order for plotting.
	insertionSort(sizes)
	return sizes
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
