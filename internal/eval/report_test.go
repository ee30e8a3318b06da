package eval

import (
	"errors"
	"strings"
	"testing"
)

// TestReportIsItsSections pins that the report is its artifacts'
// renderings under headings: each fenced body is byte for byte what the
// artifact's subcommand prints, so the golden digests of the Write
// outputs cover the report too.
func TestReportIsItsSections(t *testing.T) {
	var report strings.Builder
	if err := Report(&report, 1, 42); err != nil {
		t.Fatal(err)
	}
	rest := report.String()
	for _, a := range Artifacts {
		open := "\n## " + a.Heading + "\n\n```\n"
		i := strings.Index(rest, open)
		if i < 0 {
			t.Fatalf("%s: no section %q in order", a.Name, a.Heading)
		}
		rest = rest[i+len(open):]
		j := strings.Index(rest, "```\n")
		if j < 0 {
			t.Fatalf("%s: unclosed fence", a.Name)
		}
		body := rest[:j]
		rest = rest[j:]

		var own strings.Builder
		if err := a.Run(&own, 1, 42); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if body != own.String() {
			t.Errorf("%s: report section differs from its own rendering:\n%s\n---\n%s", a.Name, body, own.String())
		}
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

// TestReportReturnsWriteError pins that a failed write fails the report,
// whether it hits the title, a heading or a section body.
func TestReportReturnsWriteError(t *testing.T) {
	full := errors.New("device full")
	for _, n := range []int{0, 150, 2500} {
		if err := Report(&failAfter{n: n, err: full}, 1, 42); !errors.Is(err, full) {
			t.Errorf("writer failing after %d bytes: Report returned %v, want %v", n, err, full)
		}
	}
}
