package dict_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cpsinw/internal/dict"
	"cpsinw/internal/service"
)

var update = flag.Bool("update", false, "rewrite the .cpd goldens under testdata/golden/")

// goldenCampaigns are the campaigns whose dictionaries are pinned under
// testdata/golden/. The files were written by the bit-by-bit encoder
// that preceded the word-level one, so a codec change that moves them
// is a format change, not a reason to rerun with -update.
var goldenCampaigns = []struct {
	name string
	req  service.CampaignRequest
}{
	{"c17", service.CampaignRequest{Benchmark: "c17", Faults: service.FaultConfig{
		StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, Bridges: true, IDDQ: true,
	}}},
	// c432 as the durable deployment writes it, with and without the
	// leak plane.
	{"c432_iddq", service.CampaignRequest{Benchmark: "c432", Seed: 11, Faults: service.FaultConfig{
		StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, IDDQ: true,
	}}},
	{"c432_voltage", service.CampaignRequest{Benchmark: "c432", Seed: 11, Faults: service.FaultConfig{
		StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true,
	}}},
	{"mult8", service.CampaignRequest{Benchmark: "mult8", Faults: service.FaultConfig{
		StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, Bridges: true, IDDQ: true,
	}}},
}

// clearCreatedAt rewrites an artifact with its header's creation
// timestamp removed (and the checksum recomputed), leaving the entry
// bytes exactly as written.
func clearCreatedAt(t *testing.T, raw []byte) []byte {
	t.Helper()
	const magicLen = 8
	hlen := int(binary.LittleEndian.Uint32(raw[magicLen:]))
	body := raw[magicLen+4 : len(raw)-sha256.Size]
	var meta dict.Meta
	if err := json.Unmarshal(body[:hlen], &meta); err != nil {
		t.Fatal(err)
	}
	meta.CreatedAt = ""
	header, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte{}, raw[:magicLen]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(header)))
	out = append(out, header...)
	out = append(out, body[hlen:]...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// campaignArtifact runs the campaign with a fresh dictionary store and
// returns the artifact file it wrote, creation time cleared.
func campaignArtifact(t *testing.T, req service.CampaignRequest) []byte {
	t.Helper()
	norm, c, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := service.CanonicalKey(c, norm)
	st, err := dict.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := service.RunCampaignObserved(context.Background(), c, norm, &service.RunObserver{Dict: st, DictKey: key}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(st.Dir(), key+dict.ArtifactExt))
	if err != nil {
		t.Fatal(err)
	}
	return clearCreatedAt(t, raw)
}

// TestCPDGoldens pins the .cpd format byte for byte: a fresh campaign
// writes each golden's exact entry bytes, and every golden decodes and
// re-encodes to itself.
func TestCPDGoldens(t *testing.T) {
	for _, tc := range goldenCampaigns {
		t.Run(tc.name, func(t *testing.T) {
			golden := filepath.Join("testdata", "golden", tc.name+".cpd")
			written := campaignArtifact(t, tc.req)
			if *update {
				if err := os.WriteFile(golden, written, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(written, want) {
				t.Errorf("fresh campaign wrote %d bytes that differ from %s (%d bytes)", len(written), golden, len(want))
			}
			d, err := dict.Unmarshal(want)
			if err != nil {
				t.Fatal(err)
			}
			again, err := d.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, want) {
				t.Errorf("%s does not re-encode to itself (%d vs %d bytes)", golden, len(again), len(want))
			}
		})
	}
}
