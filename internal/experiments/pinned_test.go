package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"
)

// renderDigests pins the SHA-256 of every experiment's CI-scale Render()
// output, with the wall-clock lines masked (stableRender). A refactor of the
// harness must leave every digest unchanged: the same federations, the same
// trainings and the same rendering, byte for byte.
//
// amd64 only, like TestMLPGradBitsPinned: arm64 fuses multiply-adds, which
// moves the last digits of every trained θ.
var renderDigests = map[string]string{
	"ext-async":     "d9dd2bf780e5819ac02d97c35fad89ae1fa9d95ba545497e6ce652c3885130c2",
	"ext-baselines": "e0e0ab29c629d3bc4407f28091785ee50c2d7a50b4510d4d63f21481f49e8658",
	"ext-codec":     "5db8a2e797fea31073aa18295305f7c1b76f27d9e1bf31bc9a81f615fc25eaaf",
	"ext-energy":    "5d250ef90fe0d3562219f892965f59578d0ef8630a0a0eb91e5816d07a31d45e",
	"ext-fault":     "eea0fb2e9bff93f05ff9f40bf58be3f4d43d80f39f780285f5d36d5c828b4d48",
	"ext-meta-opt":  "6570a37831e155cf17e9f1451c0189a94086429e9ac66487084e3f69cee38843",
	"ext-rec":       "6d6bee5ef8fc6ff99b84dc4ed549c19ec943a89106509e0f59348de58bf2c38a",
	"ext-scale":     "89ddabcc14cdd034dcedcc9dcab353ad20d3709a54d5f0558a2203eab58777d6",
	"ext-time":      "a2333ba866d8d7aec7999f3e9aac3c576e464a3f021b22a46b6bd20ca48df3f7",
	"fig2a":         "5e7d8cdfc43d97ff3691910f8bf6e59d720df7110e0cded7edf5bf29a21432d8",
	"fig2b":         "0e2a656eb97f2e1a805c6ec0cdb84bbbbede35d010602c2071d6e5158fed1a21",
	"fig3a":         "9ca9f8b14d70b25d7f2e2fed1aba46d6359d1a6da1123c0cd1e509f4f053fac4",
	"fig3b":         "5b81c5a032b1976abe3c5ed6c7c3a3d58abec62e0cf8f66911879150eea819b9",
	"fig3c":         "36f5cf08d8c741ae778dfb5a4ef1f25ae63a98235526cbc7041a2104c03869f3",
	"fig3d":         "609217b3a0b16adaecee92701ea98acea6e5e62ef4a972d051737bca746add1a",
	"fig3e":         "54332fc6be1c7f596d74818248cb72a701b02fa2386cf4f60233080fdd5ea86f",
	"fig4":          "b5b47a64174cd1543e70559843d72d2456eab8bd5a6d7d345d34cefc6a8f6602",
	"fig4e":         "a1e083d0d5aa26abbc392329174eef0210f1f8ab08c48139a8fc05cacb4673c1",
	"table1":        "00340e234b588488ae410c60f3f75d36e6195722e53a97e30d50df5a7ebbab8f",
	"thm3":          "e495b839caa8804a5f12feca1d128e3026a505590d9d1923e12048ca1185cdd1",
}

// stableRender masks the lines of an experiment's output that measure wall
// clock: ext-async's sync and async rows and its speedup line, and
// ext-scale's elapsed, rounds/s and node-rounds/s columns. Everything else
// is a pure function of the config.
func stableRender(id, out string) string {
	lines := strings.Split(out, "\n")
	kept := lines[:0]
	for i, line := range lines {
		switch id {
		case "ext-async":
			if strings.HasPrefix(line, "sync ") || strings.HasPrefix(line, "async ") || strings.HasPrefix(line, "speedup ") {
				continue
			}
		case "ext-scale":
			if i == 2 { // the one data row: nodes shards dim rounds | elapsed rates
				if f := strings.Fields(line); len(f) > 4 {
					line = strings.Join(f[:4], " ")
				}
			}
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

func TestExperimentRendersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at CI scale")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	ids := map[string]bool{}
	for _, e := range All() {
		ids[e.ID] = true
		out, err := Run(e.ID, ScaleCI)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		sum := sha256.Sum256([]byte(stableRender(e.ID, out)))
		got := hex.EncodeToString(sum[:])
		if want, ok := renderDigests[e.ID]; !ok || got != want {
			t.Errorf("%s: render digest %s, want %q", e.ID, got, want)
		}
	}
	for id := range renderDigests {
		if !ids[id] {
			t.Errorf("renderDigests pins %s, which is not registered", id)
		}
	}
}
