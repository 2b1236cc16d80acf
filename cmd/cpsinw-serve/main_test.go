package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNewLogger runs every -log-level and -log-format value the flags
// accept, and one rejected value of each. A logger writes exactly the
// lines at or above its level, each tagged with the service, and a JSON
// logger's lines parse.
func TestNewLogger(t *testing.T) {
	msgs := []string{"at debug", "at info", "at warn", "at error"}
	levels := []struct {
		flag   string
		lowest int // index in msgs of the lowest level written
	}{
		{"debug", 0}, {"info", 1}, {"", 1}, {"warn", 2}, {"warning", 2},
		{"error", 3}, {"WARN", 2},
	}
	formats := []struct {
		flag string
		json bool
	}{{"text", false}, {"logfmt", false}, {"", false}, {"json", true}, {"JSON", true}}

	for _, lv := range levels {
		for _, f := range formats {
			var buf bytes.Buffer
			l, err := newLogger(&buf, lv.flag, f.flag)
			if err != nil {
				t.Errorf("level %q, format %q: %v", lv.flag, f.flag, err)
				continue
			}
			l.Debug(msgs[0], "job", "c-000001")
			l.Info(msgs[1], "job", "c-000001")
			l.Warn(msgs[2], "job", "c-000001")
			l.Error(msgs[3], "job", "c-000001")
			lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
			if want := msgs[lv.lowest:]; len(lines) != len(want) {
				t.Errorf("level %q, format %q: %d lines, want %q:\n%s", lv.flag, f.flag, len(lines), want, buf.String())
				continue
			}
			for i, line := range lines {
				msg := msgs[lv.lowest+i]
				if !f.json {
					if !strings.Contains(line, `msg="`+msg+`"`) || !strings.Contains(line, "service=cpsinw-serve") || !strings.Contains(line, "job=c-000001") {
						t.Errorf("level %q, format %q: line %q, want msg %q with its attributes", lv.flag, f.flag, line, msg)
					}
					continue
				}
				var got map[string]any
				if err := json.Unmarshal([]byte(line), &got); err != nil {
					t.Errorf("level %q, format %q: line is not JSON: %v\n%s", lv.flag, f.flag, err, line)
					continue
				}
				if got["msg"] != msg || got["service"] != "cpsinw-serve" || got["job"] != "c-000001" {
					t.Errorf("level %q, format %q: line %q, want msg %q with its attributes", lv.flag, f.flag, line, msg)
				}
			}
		}
	}

	if _, err := newLogger(&bytes.Buffer{}, "loud", "text"); err == nil {
		t.Error(`level "loud" accepted`)
	}
	if _, err := newLogger(&bytes.Buffer{}, "info", "xml"); err == nil {
		t.Error(`format "xml" accepted`)
	}
}
