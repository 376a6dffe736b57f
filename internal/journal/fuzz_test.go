package journal

import (
	"bytes"
	"testing"
)

// FuzzJournalDecode feeds arbitrary bytes to the wal decoder. The
// invariants under fuzz:
//
//  1. DecodeRecords never panics and never allocates beyond the input (the
//     length prefix is bounds-checked before use).
//  2. Whatever decodes re-encodes to a byte-identical clean prefix:
//     EncodeRecords(DecodeRecords(data)) is a prefix of data whenever the
//     header was valid — the round trip is exact, not merely equivalent —
//     and a clean decode leaves only zero bytes after it (the zero tail of
//     a presized segment), while a torn one leaves some nonzero byte.
//  3. A re-decode of the re-encoding yields the same records (round-trip
//     fixpoint).
func FuzzJournalDecode(f *testing.F) {
	f.Add(EncodeRecords(nil))
	f.Add(EncodeRecords([]Record{{Seq: 1, Payload: []byte("seal tweets batch")}}))
	f.Add(EncodeRecords([]Record{
		{Seq: 1, Payload: []byte(`{"kind":"create","session":"s1"}`)},
		{Seq: 2, Payload: []byte(`{"kind":"mutate","session":"s1"}`)},
		{Seq: 3, Payload: nil},
	}))
	// A torn tail: a valid record plus half a frame.
	torn := EncodeRecords([]Record{{Seq: 7, Payload: []byte("x")}})
	f.Add(append(torn, 0xff, 0x00, 0x00))
	f.Add([]byte("BLZJ"))
	f.Add([]byte{})
	// A presized segment: a record, then its zero tail.
	presized := append(EncodeRecords([]Record{{Seq: 1, Payload: []byte("x")}}), make([]byte, 64)...)
	f.Add(presized)
	// A final frame whose header never reached the disk: zeros, then its
	// payload.
	f.Add(append(append(EncodeRecords(nil), make([]byte, frameSize)...), "victim"...))
	// Garbage after the zero tail.
	f.Add(append(append([]byte(nil), presized...), 0xde, 0xad, 0xbe, 0xef))

	f.Fuzz(func(t *testing.T, data []byte) {
		records, tornTail, err := DecodeRecords(data)
		if err != nil {
			return // not journal data (or future version): rejected, not decoded
		}
		encoded := EncodeRecords(records)
		if !bytes.HasPrefix(data, encoded) {
			t.Fatalf("re-encoding is not a prefix of the input:\n in: %x\nout: %x", data, encoded)
		}
		if tail := data[len(encoded):]; tornTail == (len(bytes.Trim(tail, "\x00")) == 0) {
			t.Fatalf("decode torn=%v, but the bytes after its %d-byte re-encoding are %x", tornTail, len(encoded), tail)
		}
		again, tornAgain, err := DecodeRecords(encoded)
		if err != nil || tornAgain {
			t.Fatalf("re-decode failed: torn=%v err=%v", tornAgain, err)
		}
		if len(again) != len(records) {
			t.Fatalf("round trip changed record count: %d != %d", len(again), len(records))
		}
		for i := range records {
			if again[i].Seq != records[i].Seq || !bytes.Equal(again[i].Payload, records[i].Payload) {
				t.Fatalf("round trip changed record %d: %+v != %+v", i, again[i], records[i])
			}
		}
	})
}
