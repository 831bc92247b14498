package cli

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestKernelViewDigests pins the byte output of every view the kernel
// engine feeds at seed 1: the T2/F1/T4 probe traces, metrics, time
// series and profile, the bare token-ring timeline, and the lmbench
// latency table. Nothing else pins these bytes (the perfbench golden
// file covers only the served F1 bodies), so a kernel change that moves
// a span, an instant, a sampler point or a phase charge fails here
// first. A deliberate output change must re-record the digests.
func TestKernelViewDigests(t *testing.T) {
	cases := []struct {
		args string
		want string
	}{
		{"trace T2 F1 T4", "e32da69f1b92206e5bbda0f69a1bb3f80e24493814c6bf5202fcf6e78fb5ab6e"},
		{"trace T2 F1 T4 -format text", "6669e3916899ba4b24b9fd7a240d5ade25e548dc8086c437ee324089519466ff"},
		{"metrics T2 F1 T4", "f89bf7b1ad5c4ad64490793992b2dda0cff66432adcfed693747f7df11508562"},
		{"timeseries F1", "c5c62f54467704a1dce9d4ee2b646c899d8329709aa65011aa40161a2fbb23ff"},
		{"profile F1", "f143513425a6ac9e63f000d7f4954482cb52de50954f9e80e1ed9818092fc867"},
		{"trace -procs 3", "c4c11e2228b83ecc059f7eec59b2d6988bebbac5cbb0a65b7181b0f09505849b"},
		{"latency", "afd8707c3fcc94702cc39ef9586fa912a3aa30fc4a4ee161639627d63e48ffea"},
	}
	for _, c := range cases {
		t.Run(c.args, func(t *testing.T) {
			a, out, errb, _ := testApp()
			args := append([]string{"-seed", "1"}, strings.Fields(c.args)...)
			if code := a.Execute(args); code != 0 {
				t.Fatalf("exit = %d: %s", code, errb.String())
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("sha256 = %s, want %s", got, c.want)
			}
		})
	}
}
