package keynote

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParseAssertions feeds arbitrary text to the lexer and the parser,
// which read what a client submits before any signature is checked.
// Whatever the input, the text splits into the assertions a line-by-line
// reference finds; parsing returns an error or assertions that come
// from the text and name an authorizer; a session installs none of them
// unless it verified its signature; and a query over what it holds
// evaluates.
func FuzzParseAssertions(f *testing.F) {
	admin := DeterministicKey("fuzz-admin")
	bob := DeterministicKey("fuzz-bob")
	carol := DeterministicKey("fuzz-carol")
	toBob, err := Sign(admin, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" && HANDLE == "5" -> "RW";`,
		Comment:    "seed",
	})
	if err != nil {
		f.Fatal(err)
	}
	toCarol, err := Sign(bob, AssertionSpec{
		Licensees:      LicenseesThreshold(1, carol.Principal, "CAROL"),
		LocalConstants: `CAROL = "` + string(carol.Principal) + `"`,
		Conditions:     `(app_domain == "DisCFS" && HANDLE ~= "^[0-9]+$") || @size > 3 -> "R";`,
	})
	if err != nil {
		f.Fatal(err)
	}
	pol, err := NewPolicy(AssertionSpec{Authorizer: PolicyPrincipal, Licensees: LicenseesOr(admin.Principal), Conditions: `app_domain == "DisCFS" -> "RWX";`})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(toBob.Source)
	f.Add(toBob.Source + "\n# between\n\n" + toCarol.Source)
	f.Add(pol.Source)
	f.Add("KeyNote-Version: 2\nAuthorizer: \"POLICY\"\nLicensees: \"a\" && (\"b\" || 2-of(\"c\", \"d\", \"e\"))\n")
	f.Add("Authorizer: X\nLocal-Constants: X = \"k\"\nConditions: a == \"1\" -> { b < 2 -> \"R\"; };\n")

	f.Fuzz(func(t *testing.T, text string) {
		if got, want := splitAssertionText(text), splitLines(text); !slices.Equal(got, want) {
			t.Fatalf("split into %q, want %q", got, want)
		}
		as, err := ParseAssertions(text)
		if err == nil {
			for _, a := range as {
				if a.Authorizer == "" {
					t.Fatal("parsed an assertion with no authorizer")
				}
				if !strings.Contains(text, a.Source) {
					t.Fatal("an assertion's source is not part of the text")
				}
				if a.Signed() && a.sigStart >= len(a.Source) {
					t.Fatalf("signature at %d of a %d-byte assertion", a.sigStart, len(a.Source))
				}
				_ = a.Licensees()
			}
		}
		s, err := NewSession(discfsValues)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddPolicy(pol); err != nil {
			t.Fatal(err)
		}
		s.AddCredentialText(text)
		for _, a := range s.Credentials() {
			if !a.Verified() || a.Authorizer == PolicyPrincipal || a.Source != toBob.Source && a.Source != toCarol.Source {
				t.Fatalf("installed a credential that is not one of the signed seeds:\n%s", a.Source)
			}
		}
		if _, err := s.Query(map[string]string{"app_domain": "DisCFS", "HANDLE": "5"}, bob.Principal, carol.Principal); err != nil {
			t.Fatal(err)
		}
	})
}

// splitLines is splitAssertionText written line by line, the reference
// it is checked against: blank lines end an assertion, and comment
// lines before one are dropped.
func splitLines(src string) []string {
	var chunks []string
	var cur strings.Builder
	flush := func() {
		if strings.TrimSpace(cur.String()) != "" {
			chunks = append(chunks, cur.String())
		}
		cur.Reset()
	}
	for _, line := range strings.SplitAfter(src, "\n") {
		if strings.TrimSpace(line) == "" {
			flush()
			continue
		}
		if strings.HasPrefix(line, "#") && cur.Len() == 0 {
			continue
		}
		cur.WriteString(line)
	}
	flush()
	return chunks
}
