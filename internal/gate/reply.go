package gate

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"gridproxy/internal/proto"
)

// replies recycles the buffers JSON replies are built whole in, so a reply
// goes out with its length rather than as a chunked body.
var replies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON writes v as the response body, the bytes json.Encoder writes
// for it: HTML-escaped, ending in a newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := replies.Get().(*bytes.Buffer)
	buf.Reset()
	_ = json.NewEncoder(buf).Encode(v)
	send(w, status, buf)
}

// send writes buf as the response body, in one Write, and recycles it.
func send(w http.ResponseWriter, status int, buf *bytes.Buffer) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= 64<<10 { // a larger one is rare: not kept
		replies.Put(buf)
	}
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg, "status": status})
}

// appendJobPage appends one page of a job listing as json.Encoder writes
// {"jobs": [{"id", "state", "detail"}, …], "next"}, next omitted when 0.
func appendJobPage(b []byte, jobs []proto.JobRecord, next uint64) []byte {
	b = append(b, `{"jobs":[`...)
	for i, j := range jobs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(append(b, `{"id":`...), j.JobID)
		b = appendString(append(b, `,"state":`...), j.State)
		b = append(appendString(append(b, `,"detail":`...), j.Detail), '}')
	}
	b = append(b, ']')
	if next != 0 {
		b = append(strconv.AppendUint(append(b, `,"next":"`...), next, 10), '"')
	}
	return append(b, "}\n"...)
}

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping on: <, > and & as \u00XX, control bytes as \b, \f, \n, \r,
// \t or \u00XX, invalid UTF-8 as \ufffd, and U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch k := strings.IndexByte("\"\\\b\f\n\r\t", c); {
		case k >= 0:
			b = append(append(b, s[start:i]...), '\\', `"\bfnrt`[k])
		case c < utf8.RuneSelf: // another control byte, <, > or &
			b = append(append(b, s[start:i]...), '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
