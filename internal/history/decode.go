package history

import (
	"encoding/json"
	"fmt"
	"time"
	"unicode/utf8"
)

// Reflection-free event decoding: the inverse of AppendEncode. Store
// recovery and evicted-trail replays read every journal record, so the
// common shape (a flat object of known keys with plain string values)
// is parsed by hand into sub-slices of the payload. Any other form (an
// escape in a string, whitespace, an unknown key, a data object, an
// unparsable time, legacy payloads written by encoding/json with HTML
// escapes) is handed to encoding/json, so results and errors are
// exactly those of json.Unmarshal. The same scan lets recovery count an
// evicted record (peek) and lets EventsOf skip another instance's
// record (skips) without building an Event.

// Field slots of a scanned payload, one per key AppendEncode writes.
const (
	fType = iota
	fTime
	fProcessID
	fInstanceID
	fElementID
	fElement
	fTaskID
	fActor
	numStrFields
)

// rawEvent is one payload scanned into sub-slices: str holds each
// string field's bytes between the quotes (nil when the key is
// absent), data the raw data object.
type rawEvent struct {
	index   uint64
	str     [numStrFields][]byte
	data    []byte
	dataNum bool // data holds a number (see skipObject)
}

// scan parses p in the shape AppendEncode writes: no whitespace, known
// keys only (in any order; a repeated key overwrites, as in
// encoding/json), strings in valid UTF-8 with no escapes or control
// bytes, index as a plain unsigned integer, data as an object. It
// reports false on anything else.
func (r *rawEvent) scan(p []byte) bool {
	*r = rawEvent{}
	if len(p) == 0 || p[0] != '{' {
		return false
	}
	i := 1
	for {
		key, next, ok := scanString(p, i)
		if !ok || next >= len(p) || p[next] != ':' {
			return false
		}
		i = next + 1
		switch string(key) {
		case "index":
			r.index, i, ok = scanUint(p, i)
		case "data":
			var end int
			if end, r.dataNum, ok = skipObject(p, i); ok {
				r.data, i = p[i:end], end
			}
		default:
			f := strField(key)
			if f < 0 {
				return false
			}
			r.str[f], i, ok = scanString(p, i)
		}
		if !ok || i >= len(p) {
			return false
		}
		switch p[i] {
		case ',':
			i++
		case '}':
			return i == len(p)-1
		default:
			return false
		}
	}
}

func strField(key []byte) int {
	switch string(key) {
	case "type":
		return fType
	case "time":
		return fTime
	case "processId":
		return fProcessID
	case "instanceId":
		return fInstanceID
	case "elementId":
		return fElementID
	case "element":
		return fElement
	case "taskId":
		return fTaskID
	case "actor":
		return fActor
	}
	return -1
}

// scanString reads the string literal at p[i] and returns its contents
// and the position after the closing quote. It rejects escapes, control
// bytes and invalid UTF-8 (which encoding/json would rewrite).
func scanString(p []byte, i int) ([]byte, int, bool) {
	if i >= len(p) || p[i] != '"' {
		return nil, 0, false
	}
	high := false
	for j := i + 1; j < len(p); j++ {
		switch c := p[j]; {
		case c == '"':
			s := p[i+1 : j]
			if high && !utf8.Valid(s) {
				return nil, 0, false
			}
			return s, j + 1, true
		case c < 0x20 || c == '\\':
			return nil, 0, false
		case c >= 0x80:
			high = true
		}
	}
	return nil, 0, false
}

// scanUint reads a JSON unsigned integer at p[i]: no sign, fraction,
// exponent, leading zero or overflow.
func scanUint(p []byte, i int) (uint64, int, bool) {
	var n uint64
	j := i
	for ; j < len(p) && p[j] >= '0' && p[j] <= '9'; j++ {
		d := uint64(p[j] - '0')
		if n > (1<<64-1-d)/10 {
			return 0, 0, false
		}
		n = n*10 + d
	}
	if j == i || (p[i] == '0' && j > i+1) {
		return 0, 0, false
	}
	return n, j, true
}

// skipObject finds the end of the object at p[i] by tracking strings
// and nesting, without validating it. numbers reports a number in it:
// a valid object without numbers certainly decodes into
// map[string]any, while a number may overflow float64 and fail.
func skipObject(p []byte, i int) (end int, numbers, ok bool) {
	if i >= len(p) || p[i] != '{' {
		return 0, false, false
	}
	depth := 0
	for j := i; j < len(p); j++ {
		switch c := p[j]; c {
		case '"':
			for j++; j < len(p) && p[j] != '"'; j++ {
				if p[j] == '\\' {
					j++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return j + 1, numbers, true
			}
		default:
			if c == '-' || (c >= '0' && c <= '9') {
				numbers = true
			}
		}
	}
	return 0, false, false
}

// decoder decodes journal payloads for one replay. It interns the
// low-cardinality strings (type, process, element, element name,
// actor) so the events of a replay share them; a recovery decoder also
// interns instance IDs (ids non-nil), which every resident event and
// counter of an instance then shares.
type decoder struct {
	raw  rawEvent
	strs map[string]string
	ids  map[string]string
}

func newDecoder() *decoder { return &decoder{strs: map[string]string{}} }

// intern returns b as a string, shared through table m (when non-nil)
// with every equal string seen before.
func intern(m map[string]string, b []byte) string {
	if s, ok := m[string(b)]; ok {
		return s
	}
	s := string(b)
	if m != nil && s != "" {
		m[s] = s
	}
	return s
}

// DecodeEvent parses an event from its journal payload.
func DecodeEvent(payload []byte) (*Event, error) {
	var d decoder
	return d.decode(payload)
}

func (d *decoder) decode(p []byte) (*Event, error) {
	r := &d.raw
	if !r.scan(p) || r.data != nil {
		return decodeJSON(p)
	}
	e := &Event{Index: r.index}
	if t := r.str[fTime]; t != nil && e.Time.UnmarshalText(t) != nil {
		return decodeJSON(p)
	}
	e.Type = EventType(intern(d.strs, r.str[fType]))
	e.ProcessID = intern(d.strs, r.str[fProcessID])
	e.InstanceID = intern(d.ids, r.str[fInstanceID])
	e.ElementID = intern(d.strs, r.str[fElementID])
	e.Element = intern(d.strs, r.str[fElement])
	e.TaskID = string(r.str[fTaskID])
	e.Actor = intern(d.strs, r.str[fActor])
	return e, nil
}

// peek returns the type and instance ID of a payload without building
// an Event, with the same result and error as decoding it.
func (d *decoder) peek(p []byte) (EventType, string, error) {
	r := &d.raw
	if r.scan(p) && (r.data == nil || !r.dataNum && json.Valid(r.data)) && validTime(r.str[fTime]) {
		return EventType(intern(d.strs, r.str[fType])), intern(d.ids, r.str[fInstanceID]), nil
	}
	e, err := decodeJSON(p)
	if err != nil {
		return "", "", err
	}
	return e.Type, e.InstanceID, nil
}

// skips reports that p certainly belongs to another instance than id:
// its instance ID reads as plain bytes (no escape) that differ from id.
func (d *decoder) skips(p []byte, id string) bool {
	return d.raw.scan(p) && string(d.raw.str[fInstanceID]) != id
}

// validTime reports whether a raw time value (nil when absent) parses
// the way encoding/json parses it.
func validTime(b []byte) bool {
	if b == nil {
		return true
	}
	var t time.Time
	return t.UnmarshalText(b) == nil
}

func decodeJSON(p []byte) (*Event, error) {
	var e Event
	if err := json.Unmarshal(p, &e); err != nil {
		return nil, fmt.Errorf("history: decode event: %w", err)
	}
	return &e, nil
}
