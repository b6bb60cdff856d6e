package keynote

import "errors"

// Sentinel errors returned by parsing, verification and query evaluation.
var (
	// ErrBadSignature indicates a credential signature that does not
	// verify against its Authorizer key.
	ErrBadSignature = errors.New("keynote: signature verification failed")

	// ErrUnsigned indicates a credential assertion with no Signature
	// field. Only local policy (Authorizer: "POLICY") may be unsigned.
	ErrUnsigned = errors.New("keynote: credential assertion is unsigned")

	// ErrNotPolicy is returned when an unsigned assertion whose
	// authorizer is not POLICY is added as policy.
	ErrNotPolicy = errors.New("keynote: assertion authorizer is not POLICY")

	// ErrPolicyAsCredential is returned when an assertion whose
	// authorizer is POLICY is submitted as a credential: only the
	// server's own configuration installs policy.
	ErrPolicyAsCredential = errors.New("keynote: a credential's authorizer cannot be POLICY")

	// ErrNoValues indicates a query with an empty compliance value set.
	ErrNoValues = errors.New("keynote: query needs at least one compliance value")

	// ErrSyntax wraps assertion syntax errors.
	ErrSyntax = errors.New("keynote: syntax error")
)

// SyntaxError describes a parse failure with position information.
type SyntaxError struct {
	// Field is the assertion field being parsed ("Conditions", …), if any.
	Field string
	// Offset is the byte offset within the field text.
	Offset int
	// Msg describes the problem.
	Msg string
}

func (e *SyntaxError) Error() string {
	if e.Field == "" {
		return "keynote: syntax error at offset " + itoa(e.Offset) + ": " + e.Msg
	}
	return "keynote: syntax error in " + e.Field + " at offset " + itoa(e.Offset) + ": " + e.Msg
}

// Is makes SyntaxError match ErrSyntax in errors.Is chains.
func (e *SyntaxError) Is(target error) bool { return target == ErrSyntax }

// itoa avoids importing strconv in this tiny file's hot path; it is the
// classic reversed-digit integer formatter.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
