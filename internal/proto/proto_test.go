package proto

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"gridproxy/internal/wire"
)

// allBodies returns one populated instance of every core message body.
func allBodies() []Body {
	return []Body{
		&Hello{
			Site: "ufscar", Version: Version, Capabilities: []string{"mpi", "ticket"},
			WANAddr: "wan.ufscar:7100", BondConns: 4, BondID: []byte("0123456789abcdef"),
		},
		&HelloAck{Site: "remote", Version: Version, BondConns: 2},
		&ErrorBody{Status: StatusDenied, Text: "no permission"},
		&Ping{Nonce: 12345},
		&Pong{Nonce: 12345},
		&AuthRequest{
			User: "alice", Method: AuthSignature,
			PasswordProof: []byte{1, 2}, Challenge: []byte{3}, Signature: []byte{4, 5, 6},
			Ticket: []byte{7},
		},
		&AuthReply{OK: true, Reason: "", Token: []byte("tok"), ExpiresUnix: 1720000000},
		&PermCheck{User: "bob", Action: "submit", Resource: "site:b", Token: []byte("t")},
		&PermReply{Allowed: false, Reason: "group denied"},
		&TicketRequest{TGT: []byte("tgt"), Service: "proxy:siteB"},
		&TicketReply{OK: true, Ticket: []byte("ticket")},
		&StatusQuery{Sites: []string{"a", "b"}},
		&StatusReport{Sites: []SiteStatus{{
			Site: "a", Nodes: 16, NodesUp: 15, CPUFreePct: 42.5,
			RAMFreeMB: 2048, DiskFreeMB: 100000, Load1: 0.7,
			RunningProcs: 12, CollectedUnix: 1720000000, Speed: 15.5,
			Hosted: []HostedProcs{{Origin: "b", Procs: 3}, {Origin: "c", Procs: 1}},
		}}},
		&NodeReport{Node: "n1", CPUFreePct: 99, RAMFreeMB: 512, DiskFreeMB: 1000, Load1: 0.1, Procs: 3, UnixNano: 42},
		&JobSubmit{JobID: "j1", Owner: "alice", Program: "pi", Args: []string{"-n", "1e6"}, Procs: 8, Requirements: []string{"min_ram_mb=256"}},
		&JobUpdate{JobID: "j1", State: JobRunning, Detail: "started"},
		&JobUpdate{
			JobID: "j1", State: JobDone, Detail: "b", Site: "b",
			Outputs: []StageRef{{Name: "digest-1", Hash: "ab12", Size: 5}},
			Inline:  []InlineOutput{{Ref: 0, Data: []byte("bytes")}},
		},
		&JobUpdate{
			JobID: "j2", State: JobDone, Site: "b",
			Outputs: []StageRef{{Name: "empty", Hash: "e3b0"}, {Name: "big", Hash: "cd34", Size: 1 << 20}, {Name: "small", Hash: "ef56", Size: 3}},
			Inline:  []InlineOutput{{Ref: 0}, {Ref: 2, Data: []byte("sml")}},
		},
		&JobQuery{JobID: "j1"},
		&SpawnReply{AppID: "app-1", OK: true, Endpoints: []RankEndpoint{{Rank: 1, Addr: "n1:7001"}}},
		&PrepareSpawn{
			AppID: "app-2", Origin: "a", Owner: "alice", Program: "pi", Args: []string{"y"}, WorldSize: 3,
			Ranks: []uint32{1, 2},
			Locations: []RankLocation{
				{Rank: 0, Site: "a"},
				{Rank: 1, Site: "b"},
				{Rank: 2, Site: "b"},
			},
		},
		&PrepareSpawnReply{AppID: "app-2", OK: false, Reason: "duplicate app id"},
		&CommitSpawn{AppID: "app-2"},
		&CommitSpawn{AppID: "app-2", Epoch: 3, Token: "a-17", Unconfirmed: true},
		&AbortSpawn{AppID: "app-2", Reason: "prepare failed at site c"},
		&AbortSpawnReply{AppID: "app-2", OK: true, Killed: 2},
		&JobCancel{JobID: "j1"},
		&JobList{},
		&JobList{Owner: "alice", Before: 4711},
		&JobListReply{Jobs: []JobRecord{{JobID: "j1", State: "cancelled", Detail: "canceled by operator"}}},
		&JobListReply{Jobs: []JobRecord{{JobID: "j2", State: "done", Detail: "completed"}}, Next: 4711},
		&StreamOpen{AppID: "app-1", Rank: 3, Kind: StreamMPI},
		&StreamOpen{AppID: "tun-1", TargetSite: "b", TargetAddr: "legacy-echo", Kind: StreamData, Token: []byte("t")},
		&StreamOpenReply{OK: true},
		&RegistryQuery{Kind: "node", Attrs: []string{"ram_mb=1024"}},
		&RegistryQuery{Kind: "node", Site: "b"},
		&RegistryReply{Resources: []Resource{{Name: "n1", Kind: "node", Site: "a"}}},
		&StagePut{Upload: 7, Offset: 1 << 20, Size: 3 << 20, Step: PutMore, Name: "params.bin", Data: []byte("chunk bytes")},
		&StagePut{Upload: 8, Size: -1, Step: PutLast, Name: "empty"},
		&StagePutReply{Ref: StageRef{Name: "params.bin", Hash: "ab12", Size: 3 << 20}},
		&StageGet{Hash: "ab12", Offset: 2 << 20, Length: StageChunk},
		&StageGetReply{Size: 3 << 20, Offset: 2 << 20, Data: []byte("range bytes")},
		&StageStat{Hash: "ab12"},
		&StageStatReply{Hash: "ab12", Present: true, Size: 3 << 20},
		&GossipSync{
			From: "a", Addr: "wan.a:7100",
			Entries: []GossipEntry{
				{Site: "b", Addr: "wan.b:7100", State: 1, Incarnation: 2, Version: 9},
				{
					Site: "c", Addr: "wan.c:7100", State: 2, Incarnation: 1, Version: 4, HasSummary: true,
					Summary: SiteStatus{
						Site: "c", Nodes: 4, NodesUp: 3, CPUFreePct: 12.5, RAMFreeMB: 900, Load1: 2.25,
						RunningProcs: 5, CollectedUnix: 1720000000, AgeMillis: 1500, Incarnation: 1, Member: 2, Speed: 3.5,
						Hosted: []HostedProcs{{Origin: "a", Procs: 2}},
					},
				},
			},
			HasDigest: true,
			Digest:    []GossipDigestItem{{Site: "a", Incarnation: 3, Version: 17, State: 1}},
		},
		&GossipDelta{From: "b", Entries: []GossipEntry{{Site: "a", Addr: "wan.a:7100", State: 1, Incarnation: 3, Version: 18}}},
		&MemberList{},
		&MemberListReply{Members: []MemberInfo{{
			Site: "b", Addr: "wan.b:7100", State: 1, Incarnation: 2, Version: 9, AgeMillis: -1, Tunnel: true,
			HeardMillis: 250, SuspectMillis: -1, BondConns: 2, RTTMicros: 180, WindowBytes: 64 << 10,
		}}},
		&PeerBye{Reason: "idle"},
		&PeerByeAck{},
		&ProbeRequest{Target: "c"},
		&ProbeReply{Target: "c", OK: true},
		&FenceNotice{AppID: "app-2", Epoch: 4, Ranks: []uint32{1, 2}},
		&FenceReply{AppID: "app-2", Killed: 1},
	}
}

// oldBlobLayouts are the whole-blob client messages of protocol 3, as a
// client of that version would still send them.
func oldBlobLayouts() map[Code][]byte {
	blob := bytes.Repeat([]byte("old blob "), 100)
	hash := strings.Repeat("ab", 32)
	return map[Code][]byte{
		CodeStagePut:      wire.AppendBytes(wire.AppendString(nil, "params.bin"), blob),
		CodeStageGet:      wire.AppendString(nil, hash),
		CodeStageGetReply: wire.AppendBytes(wire.AppendString(nil, hash), blob),
	}
}

// TestOldBlobLayoutsRefused: a whole-blob put or get of the previous
// protocol version does not decode — it must not pass for a chunk, a
// range or a short blob.
func TestOldBlobLayoutsRefused(t *testing.T) {
	for code, payload := range oldBlobLayouts() {
		if body, err := Unmarshal(Message{Code: code, Corr: 1, Payload: payload}); err == nil {
			t.Errorf("code %#x: protocol 3 layout decoded as %+v", uint16(code), body)
		}
	}
}

// oldLaunchLayouts are the CommitSpawn and JobUpdate of protocol 4, which
// end where this version's unconfirmed flag and inline outputs begin.
func oldLaunchLayouts() map[Code][]byte {
	commit := wire.AppendString(wire.AppendUint64(wire.AppendString(nil, "app-2"), 1), "a-17")
	update := wire.AppendString(nil, "j1")
	update = append(update, byte(JobDone))
	update = wire.AppendString(wire.AppendString(update, "b"), "b")
	update = wire.AppendUint32(update, 1) // one ref
	update = wire.AppendInt64(wire.AppendString(wire.AppendString(update, "digest-1"), "ab12"), 5)
	return map[Code][]byte{CodeCommitSpawn: commit, CodeJobUpdate: update}
}

// TestOldLaunchLayoutsRefused: a protocol 4 commit must not pass for a
// confirmed one, nor a protocol 4 report for one that carries no output
// inline — neither decodes.
func TestOldLaunchLayoutsRefused(t *testing.T) {
	for code, payload := range oldLaunchLayouts() {
		if body, err := Unmarshal(Message{Code: code, Corr: 1, Payload: payload}); !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("code %#x: protocol 4 layout decoded as %+v, %v", uint16(code), body, err)
		}
	}
}

// unpagedJobListLayouts are a JobList and its reply as they were before
// listings were paged: a list request with no fields, and a reply that
// ends after its records.
func unpagedJobListLayouts() map[Code][]byte {
	reply := wire.AppendUint32(nil, 1)
	for _, s := range []string{"j1", "done", "completed"} {
		reply = wire.AppendString(reply, s)
	}
	return map[Code][]byte{CodeJobList: nil, CodeJobListReply: reply}
}

// TestUnpagedJobListDecodes: the paging fields were appended, so the
// layouts without them still decode — a request as the newest page of
// every owner's jobs, a reply as the last page.
func TestUnpagedJobListDecodes(t *testing.T) {
	layouts := unpagedJobListLayouts()
	body, err := Unmarshal(Message{Code: CodeJobList, Corr: 1, Payload: layouts[CodeJobList]})
	if err != nil {
		t.Fatal(err)
	}
	if got := *body.(*JobList); got != (JobList{}) {
		t.Errorf("empty JobList decoded as %+v, want zero values", got)
	}
	body, err = Unmarshal(Message{Code: CodeJobListReply, Corr: 1, Payload: layouts[CodeJobListReply]})
	if err != nil {
		t.Fatal(err)
	}
	want := &JobListReply{Jobs: []JobRecord{{JobID: "j1", State: "done", Detail: "completed"}}}
	if !reflect.DeepEqual(body, want) {
		t.Errorf("unpaged reply decoded as %+v, want %+v", body, want)
	}
}

// TestRegistryQueryWithoutSiteDecodes: Site was appended, so a query from
// a client that predates it still decodes, as a query about the answering
// proxy's own site.
func TestRegistryQueryWithoutSiteDecodes(t *testing.T) {
	payload := wire.AppendStringSlice(wire.AppendString(nil, "node"), []string{"speed=1"})
	body, err := Unmarshal(Message{Code: CodeRegistryQuery, Corr: 1, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if want := (&RegistryQuery{Kind: "node", Attrs: []string{"speed=1"}}); !reflect.DeepEqual(body, want) {
		t.Errorf("query without a site decoded as %+v, want %+v", body, want)
	}
}

// TestInlineOutputsRejectInconsistency: what a report carries inline must
// name refs of that report, each once, and stay within the bound — more
// is a protocol violation, not something to truncate.
func TestInlineOutputsRejectInconsistency(t *testing.T) {
	refs := []StageRef{{Name: "a", Hash: "01", Size: 1}, {Name: "b", Hash: "02", Size: 1}}
	update := func(inline ...InlineOutput) []byte {
		return Append(nil, &JobUpdate{JobID: "j", State: JobDone, Site: "b", Outputs: refs, Inline: inline})
	}
	full := update(InlineOutput{Ref: 0, Data: []byte("a")}, InlineOutput{Ref: 1, Data: []byte("b")})
	half := make([]byte, MaxInlineOutputs/2)
	flagged := Append(nil, &CommitSpawn{AppID: "a"})
	flagged[len(flagged)-1] = 2
	for name, tc := range map[string]struct {
		code    Code
		payload []byte
		want    error
	}{
		"everything inline, at the bound": {CodeJobUpdate, update(InlineOutput{Ref: 0, Data: half}, InlineOutput{Ref: 1, Data: half}), nil},
		"one byte over the bound":         {CodeJobUpdate, update(InlineOutput{Ref: 0, Data: half}, InlineOutput{Ref: 1, Data: append(half, 0)}), ErrMalformed},
		"more blobs than refs":            {CodeJobUpdate, update(InlineOutput{Ref: 0}, InlineOutput{Ref: 1}, InlineOutput{Ref: 2}), ErrMalformed},
		"a ref the report does not have":  {CodeJobUpdate, update(InlineOutput{Ref: 2, Data: []byte("c")}), ErrMalformed},
		"a ref twice":                     {CodeJobUpdate, update(InlineOutput{Ref: 1}, InlineOutput{Ref: 1}), ErrMalformed},
		"refs out of order":               {CodeJobUpdate, update(InlineOutput{Ref: 1}, InlineOutput{Ref: 0}), ErrMalformed},
		"cut inside a blob":               {CodeJobUpdate, full[:len(full)-1], wire.ErrTruncated},
		"cut before the count":            {CodeJobUpdate, update()[:len(update())-4], wire.ErrTruncated},
		"an unknown commit flag":          {CodeCommitSpawn, flagged, ErrMalformed},
	} {
		if _, err := Unmarshal(Message{Code: tc.code, Corr: 1, Payload: tc.payload}); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}

// TestChunkBodiesRejectInconsistency: the bytes a chunk carries must be
// exactly the bytes it says it carries, within the bounds it names.
func TestChunkBodiesRejectInconsistency(t *testing.T) {
	put := Append(nil, &StagePut{Upload: 1, Size: 10, Data: []byte("0123456789")})
	get := Append(nil, &StageGetReply{Size: 10, Data: []byte("0123456789")})
	for name, tc := range map[string]struct {
		code    Code
		payload []byte
		want    error
	}{
		"put with a byte missing":     {CodeStagePut, put[:len(put)-1], ErrMalformed},
		"put with a byte extra":       {CodeStagePut, append(append([]byte(nil), put...), 0), ErrMalformed},
		"put with an unknown step":    {CodeStagePut, Append(nil, &StagePut{Step: PutAbort + 1}), ErrMalformed},
		"put at a negative offset":    {CodeStagePut, Append(nil, &StagePut{Offset: -1}), ErrMalformed},
		"put cut inside its header":   {CodeStagePut, put[:20], wire.ErrTruncated},
		"range with a byte missing":   {CodeStageGetReply, get[:len(get)-1], ErrMalformed},
		"range past the blob's end":   {CodeStageGetReply, Append(nil, &StageGetReply{Size: 5, Offset: 1, Data: []byte("01234")}), ErrMalformed},
		"get with a negative length":  {CodeStageGet, Append(nil, &StageGet{Hash: "h", Length: -1}), ErrMalformed},
		"chunk beyond the chunk size": {CodeStagePut, Append(nil, &StagePut{Data: make([]byte, StageChunk+1)}), ErrMalformed},
	} {
		if _, err := Unmarshal(Message{Code: tc.code, Corr: 1, Payload: tc.payload}); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}

// TestWriteBodyGathersTail: a body that carries blob bytes reaches the
// wire exactly as WriteMessage would put it there, and decodes into a
// body whose bytes alias the frame.
func TestWriteBodyGathersTail(t *testing.T) {
	for _, body := range []Body{
		&StagePut{Upload: 3, Offset: 5, Size: 16, Step: PutLast, Name: "n", Data: []byte("eleven bytes")},
		&StageGetReply{Size: 100, Offset: 40, Data: []byte("eleven bytes")},
		&Ping{Nonce: 9},
	} {
		var gathered, copied bytes.Buffer
		n, err := WriteBody(wire.NewWriter(&gathered), 42, body)
		if err != nil {
			t.Fatal(err)
		}
		msg := Marshal(42, body)
		if err := WriteMessage(wire.NewWriter(&copied), msg); err != nil {
			t.Fatal(err)
		}
		if n != len(msg.Payload) || !bytes.Equal(gathered.Bytes(), copied.Bytes()) {
			t.Errorf("%T: WriteBody wrote %d payload bytes, WriteMessage %d; frames equal: %v",
				body, n, len(msg.Payload), bytes.Equal(gathered.Bytes(), copied.Bytes()))
		}
		got, err := ReadMessage(wire.NewReader(&gathered))
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := Unmarshal(got)
		if err != nil || !reflect.DeepEqual(normalize(decoded), normalize(body)) {
			t.Errorf("%T: read back %+v, %v", body, decoded, err)
		}
	}
}

// TestAllBodiesRoundTrip: every sample decodes to itself, and every code
// of the table has a sample.
func TestAllBodiesRoundTrip(t *testing.T) {
	sampled := map[Code]bool{}
	for _, body := range allBodies() {
		sampled[body.Code()] = true
		name := reflect.TypeOf(body).Elem().Name()
		t.Run(name, func(t *testing.T) {
			msg := Marshal(77, body)
			if msg.Code != body.Code() {
				t.Fatalf("Marshal code = %v, want %v", msg.Code, body.Code())
			}
			decoded, err := Unmarshal(msg)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if !reflect.DeepEqual(normalize(decoded), normalize(body)) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", decoded, body)
			}
		})
	}
	for code, newBody := range table {
		if newBody != nil && !sampled[Code(code)] {
			t.Errorf("code %#x (%T) has no sample in allBodies", code, newBody())
		}
	}
}

// normalize maps nil and empty slices to a canonical form so DeepEqual
// compares semantic content. Encoding empty and nil slices identically is
// part of the wire contract.
func normalize(b Body) Body {
	v := reflect.ValueOf(b).Elem()
	normalizeValue(v)
	return b
}

func normalizeValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 && !v.IsNil() {
			v.Set(reflect.Zero(v.Type()))
		}
		for i := 0; i < v.Len(); i++ {
			normalizeValue(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			normalizeValue(v.Field(i))
		}
	}
}

// TestHelloTunnelWidthMandatory: the tunnel-width fields are part of the
// layout, not a trailing extension — a Hello or HelloAck that ends before
// them does not decode.
func TestHelloTunnelWidthMandatory(t *testing.T) {
	for _, body := range []Body{
		&Hello{Site: "s", Version: Version, BondConns: 1, BondID: make([]byte, 16)},
		&HelloAck{Site: "s", Version: Version, BondConns: 1},
	} {
		msg := Marshal(1, body)
		if _, err := Unmarshal(msg); err != nil {
			t.Fatalf("%T: %v", body, err)
		}
		msg.Payload = msg.Payload[:len(msg.Payload)-1]
		if _, err := Unmarshal(msg); !errors.Is(err, wire.ErrTruncated) {
			t.Errorf("%T cut short: err = %v, want ErrTruncated", body, err)
		}
	}
}

func TestMessageFraming(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	want := Marshal(99, &Hello{Site: "s", Version: Version})
	if err := WriteMessage(w, want); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	r := wire.NewReader(&buf)
	got, err := ReadMessage(r)
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if got.Code != want.Code || got.Corr != want.Corr || !bytes.Equal(got.Payload, want.Payload) {
		t.Errorf("message mismatch: got %+v want %+v", got, want)
	}
}

func TestUnknownCode(t *testing.T) {
	_, err := Unmarshal(Message{Code: 0x0FFF})
	if err == nil {
		t.Fatal("expected error for unknown code")
	}
}

// TestDecodeCorruptPayloadsNeverPanic: random payloads under every code
// of the table decode or fail, and never panic.
func TestDecodeCorruptPayloadsNeverPanic(t *testing.T) {
	for code, newBody := range table {
		if newBody == nil {
			continue
		}
		f := func(raw []byte) bool {
			_ = DecodeInto(newBody(), raw)
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("code %#x: %v", code, err)
		}
	}
}

// TestTableCoversEveryCode: every Code constant has a row in the table,
// the row builds a body whose Code() is that constant, and every type
// with a Code method (every Body, since Body has an unexported method) is
// built by some row: no code can be sent but not decoded, no body is
// decoded under another's code, and no body type can never arrive.
func TestTableCoversEveryCode(t *testing.T) {
	fset := token.NewFileSet()
	built := map[string]bool{}
	for code, newBody := range table {
		if newBody == nil {
			continue
		}
		body := newBody()
		if body.Code() != Code(code) {
			t.Errorf("the row of code %#x builds %T, whose Code() is %#x", code, body, uint16(body.Code()))
		}
		built[reflect.TypeOf(body).Elem().Name()] = true
	}
	sources, _ := filepath.Glob("*.go")
	for _, name := range sources {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				// The Code block counts up from CodeInvalid by iota;
				// "_" holds the number of a retired code.
				if d.Tok != token.CONST || len(d.Specs) == 0 || d.Specs[0].(*ast.ValueSpec).Names[0].Name != "CodeInvalid" {
					continue
				}
				for value, spec := range d.Specs[1:] {
					code, name := Code(value+1), spec.(*ast.ValueSpec).Names[0].Name
					if name != "_" && (int(code) >= len(table) || table[code] == nil) {
						t.Errorf("%s has no row in the table", name)
					}
				}
			case *ast.FuncDecl:
				if d.Recv == nil || d.Name.Name != "Code" {
					continue
				}
				recv := d.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name
				if !built[recv] {
					t.Errorf("%s has a Code method but no row of the table builds it", recv)
				}
			}
		}
	}
}

func TestReadMessageRejectsShortPayload(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	if err := w.WriteFrame(0x01, []byte{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(wire.NewReader(&buf)); err == nil {
		t.Error("expected error for short control payload")
	}
}

// samplesByName names each allBodies sample after its body type, with
// "-2", "-3", … on the second and later samples of one type.
func samplesByName() map[string]Body {
	named := map[string]Body{}
	for _, body := range allBodies() {
		name := reflect.TypeOf(body).Elem().Name()
		for i := 2; named[name] != nil; i++ {
			name = fmt.Sprintf("%s-%d", reflect.TypeOf(body).Elem().Name(), i)
		}
		named[name] = body
	}
	return named
}

// TestGoldenCorpus: every sample encodes to the bytes protocol 6 wrote
// for it under testdata/v6, and those bytes decode back to the sample.
func TestGoldenCorpus(t *testing.T) {
	samples := samplesByName()
	files, err := os.ReadDir(filepath.Join("testdata", "v6"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(samples) {
		t.Errorf("testdata/v6 holds %d files for %d samples", len(files), len(samples))
	}
	for name, body := range samples {
		want, err := os.ReadFile(filepath.Join("testdata", "v6", name+".bin"))
		if err != nil {
			t.Error(err)
			continue
		}
		if got := Marshal(1, body).Payload; !bytes.Equal(got, want) {
			t.Errorf("%s encodes as %x, protocol 6 wrote %x", name, got, want)
		}
		decoded, err := Unmarshal(Message{Code: body.Code(), Corr: 1, Payload: want})
		if err != nil || !reflect.DeepEqual(normalize(decoded), normalize(body)) {
			t.Errorf("%s: the recorded bytes decode as %+v, %v", name, decoded, err)
		}
	}
}
