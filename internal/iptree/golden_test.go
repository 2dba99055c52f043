package iptree

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"runtime"
	"testing"

	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// The golden digests pin the snapshot payload of freshly built trees: the
// SHA-256 of the gob-encoded VIPTree.ExportState and Tree.ExportState, each
// written by a fresh encoder. Together with the D2D ground-truth tests they
// are the equivalence check for any change to construction or to the
// in-memory layout: the payload expands every matrix cell, superior door and
// VIP entry, so a single differing bit changes the digest. A mismatch
// reports the digest the current code produces. The round-trip and memory
// accounting tests below run on the same venues on every architecture.

// goldenMenziesFullMemory is the MemoryBytes of the Menzies full-scale
// VIP-Tree.
const goldenMenziesFullMemory = 555672

var goldenCases = []struct {
	name    string
	venue   func() *model.Venue
	vip, ip string
}{
	{"random37", func() *model.Venue { return randomVenue(37) },
		"84f54ab066808ac41805ad65c383e541abee1a292f283eb193adf0e05804dc4a",
		"2c92458d052186bcb94d77bd1eb9cf84086aa29539793b14c498c6b26bda1fac"},
	{"random74", func() *model.Venue { return randomVenue(74) },
		"5dba4b2a34b8852347b315d10351695f6ee23c0224e3ed78e1ee87a08dd11d5f",
		"40406ae1971f429a6f65d4fc7cfcc5ef7e0ee5692679785eed4503b03173cdcd"},
	{"random111", func() *model.Venue { return randomVenue(111) },
		"baf1e202af8b5b911390aa1f75ec1c626f3ce4b5c5d34ab49b9eb709a9f856b4",
		"8ac2f88b152c79bb7382a8f37b6ed09cb96ef248cc824dc360e2e8b20ba521ec"},
	{"random148", func() *model.Venue { return randomVenue(148) },
		"b547fe184ca513f9229d787124064b49f4fb43885a3e4c846f116ee89b3ab05f",
		"eb105e13fb2f19114395b83d2c6cb911810e25de9fb0e4c52f0285601d60dde2"},
	{"random185", func() *model.Venue { return randomVenue(185) },
		"ad314551cf74d6956b1f93f6703b98c007224c65fe53d6b32469daaba1e75515",
		"98af10966c1f09f081d7363aaab4d27ecf458374536be681fb03667e0fb88072"},
	{"random222", func() *model.Venue { return randomVenue(222) },
		"3a306e8629b934e7d6d8cfe2312d033f7e321a1792c5d1d04e985f973f4b1916",
		"78b7976b9eaafe6b6ef2397e134a9e067a229e2885cfded73673b1e14c8675c2"},
	{"clayton-tiny", func() *model.Venue { return venuegen.Clayton(venuegen.ScaleTiny) },
		"7a4757b62cba24b2f4142c67bdd8115b551d7d2c0951fd90d8f7b7e33fa91ba7",
		"e805781c35b7e67a185635ee90c0667475af50af1d64403b6459d7cb8cd3e500"},
	{"menzies-tiny", func() *model.Venue { return venuegen.Menzies(venuegen.ScaleTiny) },
		"8449ae6ae2d47fc39e0a819f4b16fae3a069bbad1bfadefccfc724c107698c6c",
		"da4e71cf32607583bdea523eb07023fd7d3d0fd0c2320c1eaa77924b63cd1ab5"},
	{"menzies-full", func() *model.Venue { return venuegen.Menzies(venuegen.ScaleFull) },
		"3a6aed0b0c4b42684a650b5c899b0c1d8a486ffd0a1e067638c6ed3bbe6a9f46",
		"b568d219d64dfa9605be5c09cd6bd78f6152f13bb702f2155379e6527dbd964b"},
}

// encodeState gob-encodes a snapshot state with a fresh encoder, so byte
// comparisons are meaningful.
func encodeState(t *testing.T, st any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSnapshotGoldenDigests builds a VIP-Tree on each golden venue and
// requires that both exported payloads match the recorded digests, and that
// the Menzies full-scale VIP-Tree reports the recorded MemoryBytes.
func TestSnapshotGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; Go may fuse float multiply-adds on %s, changing low-order bits", runtime.GOARCH)
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			vt := MustBuildVIPTree(c.venue(), Options{})
			if got := digest(encodeState(t, vt.ExportState())); got != c.vip {
				t.Errorf("VIP export digest %s, want %s", got, c.vip)
			}
			if got := digest(encodeState(t, vt.Tree.ExportState())); got != c.ip {
				t.Errorf("IP export digest %s, want %s", got, c.ip)
			}
			if c.name == "menzies-full" {
				if got := vt.MemoryBytes(); got != goldenMenziesFullMemory {
					t.Errorf("MemoryBytes %d, want %d", got, goldenMenziesFullMemory)
				}
			}
		})
	}
}

// TestPackSnapshotByteIdentical: on each golden venue, restoring the
// exported VIP-Tree and IP-Tree payloads into fresh slabs and exporting
// again reproduces both payloads byte for byte.
func TestPackSnapshotByteIdentical(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			v := c.venue()
			vt := MustBuildVIPTree(v, Options{})
			vipBytes := encodeState(t, vt.ExportState())
			var vst VIPState
			if err := gob.NewDecoder(bytes.NewReader(vipBytes)).Decode(&vst); err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreVIPTree(v, &vst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeState(t, restored.ExportState()), vipBytes) {
				t.Error("VIP restore → re-export changed the payload")
			}

			ipBytes := encodeState(t, vt.Tree.ExportState())
			var tst TreeState
			if err := gob.NewDecoder(bytes.NewReader(ipBytes)).Decode(&tst); err != nil {
				t.Fatal(err)
			}
			restoredIP, err := RestoreTree(v, &tst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeState(t, restoredIP.ExportState()), ipBytes) {
				t.Error("IP restore → re-export changed the payload")
			}
		})
	}
}

// TestPackedAccounting sanity-checks the arena-exact memory accounting on
// each golden venue: a restored tree reports the same bytes as the built
// one, and the slabs make up more than half of the report but not all of it.
func TestPackedAccounting(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			v := c.venue()
			vt := MustBuildVIPTree(v, Options{})
			total := vt.MemoryBytes()
			restored, err := RestoreVIPTree(v, vt.ExportState())
			if err != nil {
				t.Fatal(err)
			}
			if got := restored.MemoryBytes(); got != total {
				t.Errorf("restored tree reports %d bytes, built tree %d", got, total)
			}
			slabs := vt.Tree.pk.arenaBytes() + vt.vpk.arenaBytes()
			if slabs >= total || 2*slabs <= total {
				t.Errorf("slabs are %d of %d reported bytes, want more than half and less than all", slabs, total)
			}
		})
	}
}
