package history

import (
	"encoding/json"
	"time"
)

// Append-style event encoding: the audit hot path serialises every
// engine transition's events, so the store's committers encode into
// reusable buffers instead of allocating a fresh one per event the way
// json.Marshal does. The output is JSON with the Event struct tags'
// keys and omitempty rules, in field order and without whitespace;
// only the Data map (carried by routing completions, messages, timers
// and incidents) goes through json.Marshal. Strings are not
// HTML-escaped, so the bytes differ from json.Marshal's where a string
// holds <, >, &, U+2028 or U+2029, but both forms decode to the same
// event. decode.go holds the inverse.

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal (quoted and
// escaped) to buf.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		buf = append(buf, s[start:i]...)
		switch c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		start = i + 1
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

func appendStringField(buf []byte, name, value string) []byte {
	if value == "" {
		return buf
	}
	buf = append(buf, ',', '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':')
	return appendJSONString(buf, value)
}

// AppendEncode appends the event's journal encoding to buf and returns
// the extended buffer. DecodeEvent reads it back, as it reads journals
// written by encoding/json.
func AppendEncode(buf []byte, e *Event) ([]byte, error) {
	buf = append(buf, '{')
	if e.Index != 0 {
		buf = append(buf, `"index":`...)
		buf = appendUint(buf, e.Index)
		buf = append(buf, ',')
	}
	buf = append(buf, `"type":`...)
	buf = appendJSONString(buf, string(e.Type))
	buf = append(buf, `,"time":"`...)
	buf = e.Time.AppendFormat(buf, time.RFC3339Nano)
	buf = append(buf, '"')
	buf = appendStringField(buf, "processId", e.ProcessID)
	buf = appendStringField(buf, "instanceId", e.InstanceID)
	buf = appendStringField(buf, "elementId", e.ElementID)
	buf = appendStringField(buf, "element", e.Element)
	buf = appendStringField(buf, "taskId", e.TaskID)
	buf = appendStringField(buf, "actor", e.Actor)
	if len(e.Data) > 0 {
		data, err := json.Marshal(e.Data)
		if err != nil {
			return buf, err
		}
		buf = append(buf, `,"data":`...)
		buf = append(buf, data...)
	}
	return append(buf, '}'), nil
}

func appendUint(buf []byte, n uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return append(buf, tmp[i:]...)
}
