package ticket

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

// FuzzOpen checks the one seal and the one open. Any claim sealed for a
// purpose opens to itself as that purpose and is refused as every other;
// the fuzzed bytes themselves, opened as any purpose, are refused without
// a panic.
func FuzzOpen(f *testing.F) {
	key := []byte("fuzz key")
	f.Add(byte(TGT), "alice", "researchers", "", int64(1_700_000_000), []byte(nil), []byte(nil))
	f.Add(byte(Service), "bob", "", "proxy:sitea", int64(-1), []byte(nil), []byte{0x02, 0x00})
	f.Add(byte(Session), "", "a\x00b", "", int64(1)<<62, []byte("inner ticket"), bytes.Repeat([]byte{0x03}, 64))
	f.Fuzz(func(t *testing.T, purpose byte, user, group, service string, expiry int64, inner, raw []byte) {
		c := Claims{
			Purpose: Purpose(purpose),
			User:    user,
			Groups:  []string{group},
			Service: service,
			Expiry:  time.Unix(expiry, 0),
			Inner:   inner,
		}
		sealed := Seal(key, c)
		for _, want := range []Purpose{TGT, Service, Session} {
			got, err := Open(key, want, sealed, c.Expiry)
			if want != c.Purpose {
				if err == nil {
					t.Fatalf("sealed as %d, opened as %d", c.Purpose, want)
				}
				continue
			}
			if err != nil {
				t.Fatalf("round trip as %d: %v", want, err)
			}
			if got.Purpose != c.Purpose || got.User != c.User || !slices.Equal(got.Groups, c.Groups) ||
				got.Service != c.Service || !got.Expiry.Equal(c.Expiry) || !bytes.Equal(got.Inner, c.Inner) {
				t.Fatalf("round trip: sealed %+v, opened %+v", c, got)
			}
		}
		for _, want := range []Purpose{TGT, Service, Session} {
			if _, err := Open(key, want, raw, time.Unix(0, 0)); err == nil {
				t.Fatalf("arbitrary bytes %x opened as %d", raw, want)
			}
		}
	})
}
