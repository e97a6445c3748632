// Package sent exercises the sentinelerr analyzer: sentinel errors are
// matched with errors.Is and wrapped with %w, never == or %v.
package sent

import (
	"errors"
	"fmt"
	"io"
)

// Package sentinels.
var (
	ErrBad   = errors.New("sent: bad")
	ErrOther = errors.New("sent: other")
)

// ErrCount is named like a sentinel but is not an error: not a sentinel.
var ErrCount = 3

// errLocalStyle is unexported and not Err-prefixed in the exported
// convention; the analyzer keys on the Err* name and error type only.
var errLocalStyle = errors.New("sent: local")

// BadCompare: wrapped returns make == false. A clean-close check by
// identity (err == capture.ErrClosed) holds only while nothing wraps the
// sentinel, so no test fails until the first wrap.
func BadCompare(err error) bool {
	return err == ErrBad // want "sentinel error ErrBad compared with =="
}

// BadNotEqual: != has the same problem.
func BadNotEqual(err error) bool {
	return err != ErrOther // want "sentinel error ErrOther compared with !="
}

// BadStdlib: stdlib sentinels are matched the same way.
func BadStdlib(err error) bool {
	return err == io.ErrUnexpectedEOF // want "sentinel error ErrUnexpectedEOF compared with =="
}

// BadWrapV: %v flattens the sentinel to text and severs errors.Is — for a
// rare case such as a fleet with no tenants, one no test asks errors.Is of.
func BadWrapV(detail int) error {
	return fmt.Errorf("%v: detail %d", ErrBad, detail) // want "sentinel error ErrBad wrapped with %v"
}

// BadWrapSecondArg: verb positions are tracked per argument.
func BadWrapSecondArg(err error) error {
	return fmt.Errorf("%w after %s", err, ErrOther) // want "sentinel error ErrOther wrapped with %s"
}

// GoodIs: the blessed comparison.
func GoodIs(err error) bool {
	return errors.Is(err, ErrBad)
}

// GoodNilCompare: nil checks are not sentinel comparisons.
func GoodNilCompare(err error) bool {
	return err == nil
}

// GoodWrapW: %w keeps the chain intact.
func GoodWrapW(detail int) error {
	return fmt.Errorf("%w: detail %d", ErrBad, detail)
}

// GoodWrapWithTrailingDetail: a non-sentinel error under %v is fine —
// only sentinels must survive unwrapping.
func GoodWrapWithTrailingDetail(err error) error {
	return fmt.Errorf("%w: %v", ErrBad, err)
}

// GoodNotError: Err-prefixed non-error identifiers are ignored.
func GoodNotError(n int) bool {
	return n == ErrCount
}

// GoodLocalCompare: errLocalStyle is error-typed but not Err*-named, so
// the convention does not apply.
func GoodLocalCompare(err error) bool {
	return err == errLocalStyle
}

// AllowedCompare: a hot loop may compare identity on purpose when the
// sentinel is guaranteed unwrapped; the allow records the reason.
//
//bf:allow sentinelerr identity compare is intentional: the decode loop never wraps ErrBad
func AllowedCompare(err error) bool {
	return err == ErrBad
}
