// Package notes encodes §11 of the paper ("Other Comments"): the
// qualitative installation, porting and support observations that the
// authors argue matter as much as performance when choosing a system.
// They are data, not measurements, but a faithful reproduction carries
// them — they are half of the paper's conclusion.
package notes

// Verdict grades an aspect per system.
type Verdict int

// Verdicts, from best to worst.
const (
	Good Verdict = iota
	Mixed
	Poor
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Good:
		return "good"
	case Mixed:
		return "mixed"
	case Poor:
		return "poor"
	}
	return "?"
}

// Item is one §11 observation.
type Item struct {
	// Aspect names what was evaluated.
	Aspect string
	// PerOS grades Linux, FreeBSD and Solaris in that order.
	PerOS [3]Verdict
	// Detail quotes or summarises the paper.
	Detail string
}

// Installation returns the §11 installation experiences ("Linux being the
// easiest and Solaris being the most difficult").
func Installation() []Item {
	return []Item{
		{
			Aspect: "Installation across the Internet",
			PerOS:  [3]Verdict{Good, Good, Poor},
			Detail: "Linux and FreeBSD install over the network; Solaris ships on CD-ROM only.",
		},
		{
			Aspect: "WWW installation documentation",
			PerOS:  [3]Verdict{Good, Good, Poor},
			Detail: "Linux and FreeBSD document installation on the web.",
		},
		{
			Aspect: "Panasonic/Creative Labs CD-ROM support",
			PerOS:  [3]Verdict{Good, Poor, Poor},
			Detail: "FreeBSD and Solaris did not support the (very common) drive.",
		},
		{
			Aspect: "Installer stability",
			PerOS:  [3]Verdict{Good, Poor, Poor},
			Detail: "FreeBSD and Solaris crashed during installation on a driver incompatibility.",
		},
		{
			Aspect: "Respects existing boot loader and partitions",
			PerOS:  [3]Verdict{Good, Good, Poor},
			Detail: "Solaris obliterated the existing boot loader and disk partitions.",
		},
		{
			Aspect: "System administration documentation",
			PerOS:  [3]Verdict{Good, Good, Poor},
			Detail: "Solaris' was inaccessible or missing.",
		},
	}
}

// Porting returns the §11 benchmark-porting experiences ("Linux again
// being the easiest system and Solaris the most difficult").
func Porting() []Item {
	return []Item{
		{
			Aspect: "BSD and System V compatibility",
			PerOS:  [3]Verdict{Good, Mixed, Mixed},
			Detail: "Linux offers both personalities; the others favour their own lineage.",
		},
		{
			Aspect: "Free software preinstalled (gcc, emacs, tcsh)",
			PerOS:  [3]Verdict{Good, Good, Poor},
			Detail: "Solaris ships no compiler; only an old, buggy gcc was available online.",
		},
		{
			Aspect: "Internet repository of pre-compiled binaries",
			PerOS:  [3]Verdict{Good, Good, Poor},
			Detail: "No Solaris x86 binary repository existed; the user community was too small.",
		},
		{
			Aspect: "NFS interoperability quirks",
			PerOS:  [3]Verdict{Poor, Mixed, Good},
			Detail: "The Linux 1.2.8 server demands privileged client ports, which FreeBSD clients do not bind by default (the paper's 'most irritating problem').",
		},
	}
}

// Conclusion returns the paper's §12 per-system summary sentences.
func Conclusion() map[string]string {
	return map[string]string{
		"Linux 1.2.8": "Best at system calls, context switching (few processes), pipes and small-file metadata; " +
			"poor networking overall and miserable NFS against non-Linux servers.",
		"FreeBSD 2.0.5R": "Best networking and NFS; strong on large files and MAB; weak on small files and metadata.",
		"Solaris 2.4": "Slowest system calls, context switches and pipes; reads large files efficiently; " +
			"does poorly on local MAB. Its features (multiprocessing) may still justify it.",
		"overall": "No one system dominates: overall performance is not a sufficient argument for choosing " +
			"one of these systems over the others.",
	}
}
