package analysis

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
	"testing"
)

// FuzzSuppressions holds scanSuppressions to its contract on one
// arbitrary comment: it never panics, a comment without the //fpcc:
// prefix is ignored, and one with it comes out exactly once — as a
// suppression of a known token with a non-empty justification after
// "--", covering its own line and the next; as a malformed one (a
// known token without that justification); or as an unknown token
// (the text up to the first space or tab).
func FuzzSuppressions(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		const line = 3
		fset := token.NewFileSet()
		file := fset.AddFile("p.go", -1, 100+len(text))
		file.SetLines([]int{0, 10, 20, 30})
		c := &ast.Comment{Slash: file.Pos(20), Text: text}
		idx := scanSuppressions(fset, []*ast.File{{Comments: []*ast.CommentGroup{{List: []*ast.Comment{c}}}}})

		covered := 0
		for tok, byFile := range idx.ok {
			for name, lines := range byFile {
				if name != "p.go" || len(lines) != 2 || !lines[line] || !lines[line+1] {
					t.Fatalf("%q: token %q covers %s lines %v, want p.go lines %d and %d", text, tok, name, lines, line, line+1)
				}
				covered++
			}
		}
		found := covered + len(idx.malformed) + len(idx.unknown)
		body, isSuppression := strings.CutPrefix(text, "//fpcc:")
		if !isSuppression {
			if found != 0 {
				t.Fatalf("%q: a comment without the prefix gave %d results", text, found)
			}
			return
		}
		if found != 1 {
			t.Fatalf("%q: %d results (%d suppressions, %d malformed, %d unknown), want exactly one",
				text, found, covered, len(idx.malformed), len(idx.unknown))
		}
		tok, rest := body, ""
		if i := strings.IndexAny(body, " \t"); i >= 0 {
			tok, rest = body[:i], body[i:]
		}
		_, just, hasDash := strings.Cut(rest, "--")
		justified := hasDash && strings.TrimSpace(just) != ""
		known := slices.Contains(KnownTokens, tok)
		switch {
		case len(idx.unknown) == 1:
			if s := idx.unknown[0]; known || s.token != tok || s.line != line {
				t.Fatalf("%q: unknown token %q at line %d, want the unknown %q at line %d", text, s.token, s.line, tok, line)
			}
		case len(idx.malformed) == 1:
			if s := idx.malformed[0]; !known || justified || s.token != tok || s.line != line {
				t.Fatalf("%q: malformed %q at line %d, but the token is known: %v, justified: %v", text, s.token, s.line, known, justified)
			}
		default:
			if !known || !justified || idx.ok[tok] == nil {
				t.Fatalf("%q: accepted as a suppression of %q (known: %v, justified: %v)", text, tok, known, justified)
			}
		}
	})
}
