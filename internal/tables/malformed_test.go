package tables

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestUnmarshalRejectsMalformed crafts images a registry peer or a
// corrupt cache could serve — each a valid image with one field
// mutated — and requires both Unmarshal and UnmarshalFunc to refuse
// them with an error, promptly, without a large allocation: never a
// hang in Bake, a panic, or an accepted image the runtime would index
// out of range.
func TestUnmarshalRejectsMalformed(t *testing.T) {
	_, _, im := encode(t, testSrc)
	var src *FuncImage
	for _, fi := range im.Funcs {
		if len(fi.Entries) >= 2 && (src == nil || len(fi.Entries) > len(src.Entries)) {
			src = fi
		}
	}
	if src == nil {
		t.Fatal("test source encodes no function with a BAT list")
	}
	head := -1 // a slot whose taken-direction list is non-empty
	for s, h := range src.BATHeads {
		if h[0] >= 0 {
			head = s
			break
		}
	}
	if head < 0 {
		t.Fatal("no non-empty taken list")
	}
	// Field offsets inside one function record (see appendFunc).
	paramsOff := 4 + len(src.Name) + 8
	pcCountOff := paramsOff + 4

	cases := []struct {
		name   string
		mutate func(fi *FuncImage)
		patch  func(b []byte)
	}{
		{name: "cyclic list", mutate: func(fi *FuncImage) { fi.Entries[0].Next = 0 }},
		{name: "two-entry cycle", mutate: func(fi *FuncImage) {
			fi.Entries[0].Next = 1
			fi.Entries[1].Next = 0
		}},
		{name: "head past entries", mutate: func(fi *FuncImage) { fi.BATHeads[head][0] = 1 << 20 }},
		{name: "head below -1", mutate: func(fi *FuncImage) { fi.BATHeads[head][1] = -7 }},
		{name: "next past entries", mutate: func(fi *FuncImage) { fi.Entries[0].Next = 1 << 20 }},
		{name: "next below -1", mutate: func(fi *FuncImage) { fi.Entries[0].Next = -2 }},
		{name: "target past slots", mutate: func(fi *FuncImage) { fi.Entries[0].Target = fi.NumSlots }},
		{name: "hash space past 2^30", patch: func(b []byte) { b[paramsOff+2] = 31 }},
		{name: "bcv words disagree with slots", patch: func(b []byte) { b[paramsOff+2] = 20 }},
		{name: "pc count past input", patch: func(b []byte) {
			binary.LittleEndian.PutUint32(b[pcCountOff:], 1<<24)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fi, _, err := UnmarshalFunc(MarshalFunc(src)) // a private copy
			if err != nil {
				t.Fatalf("valid record refused: %v", err)
			}
			if tc.mutate != nil {
				tc.mutate(fi)
			}
			rec := MarshalFunc(fi)
			if tc.patch != nil {
				tc.patch(rec)
			}
			img := binary.LittleEndian.AppendUint32(nil, magic)
			img = binary.LittleEndian.AppendUint32(img, 1)
			img = append(img, rec...)

			for _, dec := range []struct {
				name string
				run  func() error
			}{
				{"Unmarshal", func() error { _, err := Unmarshal(img); return err }},
				{"UnmarshalFunc", func() error { _, _, err := UnmarshalFunc(rec); return err }},
			} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				done := make(chan error, 1)
				go func() {
					defer func() {
						if p := recover(); p != nil {
							done <- fmt.Errorf("panic: %v", p)
						}
					}()
					done <- dec.run()
				}()
				select {
				case err := <-done:
					if err == nil {
						t.Errorf("%s accepted the crafted image", dec.name)
					} else if strings.HasPrefix(err.Error(), "panic") {
						t.Errorf("%s: %v", dec.name, err)
					}
				case <-time.After(2 * time.Second):
					t.Fatalf("%s did not return within 2s", dec.name)
				}
				runtime.ReadMemStats(&after)
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Errorf("%s allocated %d bytes for a %d-byte input", dec.name, grew, len(img))
				}
			}
		})
	}
}
