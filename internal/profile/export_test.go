package profile

import "strings"

// FoldedString is the folded output as one string.
func (p *Profile) FoldedString() string {
	var b strings.Builder
	_ = p.WriteFolded(&b)
	return b.String()
}

// Samples returns the folded samples in canonical order.
func (p *Profile) Samples() []Sample {
	out := make([]Sample, 0, len(p.samples))
	for _, s := range p.sorted() {
		out = append(out, *s)
	}
	return out
}

// Truncated reports folding anomalies: orphan End events plus spans
// force-closed at stream end. Zero means every span folded cleanly.
func (p *Profile) Truncated() int64 { return p.truncated }

// DroppedEvents reports the total ring-dropped event count of the folded
// processes. Nonzero means the profile covers the tail of each run, not
// the whole run.
func (p *Profile) DroppedEvents() int64 { return p.dropped }
