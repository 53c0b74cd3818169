package proto

import (
	"bytes"
	"testing"

	"gridproxy/internal/wire"
)

// FuzzUnmarshal decodes arbitrary payloads under every registered core
// message code: decoders must error or succeed, never panic, and
// successful decodes must re-encode without error.
func FuzzUnmarshal(f *testing.F) {
	for _, body := range allBodies() {
		f.Add(uint16(body.Code()), Append(nil, body))
	}
	f.Add(uint16(CodeHello), []byte{0xFF})
	// The version-1 layouts, which end before the tunnel-width fields.
	f.Add(uint16(CodeHello), Append(nil, &Hello{Site: "s", Version: 1})[:6])
	f.Add(uint16(CodeHelloAck), Append(nil, &HelloAck{Site: "s", Version: 1})[:4])
	f.Add(uint16(0xFFFF), []byte{})
	// The whole-blob put and get of protocol 3: whatever else a fuzzer
	// makes of them, they do not decode (TestOldBlobLayoutsRefused).
	for code, payload := range oldBlobLayouts() {
		f.Add(uint16(code), payload)
	}
	// Protocol 4's commit and completion report, one field short each
	// (TestOldLaunchLayoutsRefused), and reports whose inline outputs
	// contradict their refs or exceed MaxInlineOutputs.
	for code, payload := range oldLaunchLayouts() {
		f.Add(uint16(code), payload)
	}
	// Listings as they were before paging: no fields, no cursor.
	for code, payload := range unpagedJobListLayouts() {
		f.Add(uint16(code), payload)
	}
	refs := []StageRef{{Name: "a", Hash: "01", Size: 1}}
	f.Add(uint16(CodeJobUpdate), Append(nil, &JobUpdate{JobID: "j", Outputs: refs, Inline: []InlineOutput{{Ref: 0}, {Ref: 1}}}))
	f.Add(uint16(CodeJobUpdate), Append(nil, &JobUpdate{JobID: "j", Outputs: refs, Inline: []InlineOutput{{Ref: 0, Data: make([]byte, MaxInlineOutputs+1)}}}))
	f.Add(uint16(CodeCommitSpawn), append(Append(nil, &CommitSpawn{AppID: "a"}), 7))

	f.Fuzz(func(t *testing.T, code uint16, payload []byte) {
		body, err := Unmarshal(Message{Code: Code(code), Corr: 1, Payload: payload})
		if err != nil {
			return
		}
		// Whatever decoded must re-encode.
		_ = Append(nil, body)
	})
}

// FuzzReadMessage feeds arbitrary frame streams to the control-message
// reader.
func FuzzReadMessage(f *testing.F) {
	var seed bytes.Buffer
	w := wire.NewWriter(&seed)
	_ = WriteMessage(w, Marshal(7, &Hello{Site: "s", Version: Version}))
	f.Add(seed.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(bytes.NewReader(data))
		for {
			msg, err := ReadMessage(r)
			if err != nil {
				return
			}
			_, _ = Unmarshal(msg)
		}
	})
}
