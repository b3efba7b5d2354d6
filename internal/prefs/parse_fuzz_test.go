package prefs_test

import (
	"testing"

	"cqp/internal/prefs"
)

// FuzzParseProfile holds the profile text format to its round trip and to
// the reference parser: parsing never panics, ParseProfile and ParseAtomic
// answer as parseProfileRef and parseAtomicRef do (atoms, texts, indexes
// and error messages), and a profile that parses renders (String) a text
// that parses again and renders to the same text, so String is a canonical
// form. testdata/fuzz/FuzzParseProfile seeds it with the profiles of the
// prefs tests.
func FuzzParseProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		checkAgainstRef(t, src)
		p, err := prefs.ParseProfile(src)
		if err != nil {
			return
		}
		text := p.String()
		p2, err := prefs.ParseProfile(text)
		if err != nil {
			t.Fatalf("%q parses, its rendering %q does not: %v", src, text, err)
		}
		if text2 := p2.String(); text2 != text {
			t.Fatalf("rendering of %q is not a fixed point:\n%s\n%s", src, text, text2)
		}
	})
}
