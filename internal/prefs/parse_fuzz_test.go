package prefs

import "testing"

// FuzzParseProfile holds the profile text format to its round trip: parsing
// never panics, and a profile that parses renders (String) a text that parses
// again and renders to the same text, so String is a canonical form.
// testdata/fuzz/FuzzParseProfile seeds it with the profiles of the prefs
// tests.
func FuzzParseProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParseProfile(src)
		if err != nil {
			return
		}
		text := p.String()
		p2, err := ParseProfile(text)
		if err != nil {
			t.Fatalf("%q parses, its rendering %q does not: %v", src, text, err)
		}
		if text2 := p2.String(); text2 != text {
			t.Fatalf("rendering of %q is not a fixed point:\n%s\n%s", src, text, text2)
		}
	})
}
