package packet

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrParse is returned for malformed textual addresses and prefixes.
var ErrParse = errors.New("packet: malformed address")

// ParseAddr parses a dotted-quad IPv4 address ("10.1.2.3"). Each octet
// must be a plain decimal in [0, 255] — no whitespace, signs, hex, or
// leading-zero octal ambiguity.
func ParseAddr(s string) (Addr, error) {
	var a Addr
	for i := 0; i < 4; i++ {
		part := s
		if i < 3 {
			dot := strings.IndexByte(s, '.')
			if dot < 0 {
				return 0, fmt.Errorf("%w: %q", ErrParse, s)
			}
			part, s = s[:dot], s[dot+1:]
		}
		if len(part) == 0 || len(part) > 3 || (len(part) > 1 && part[0] == '0') {
			return 0, fmt.Errorf("%w: octet %q", ErrParse, part)
		}
		v, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("%w: octet %q", ErrParse, part)
		}
		a = a<<8 | Addr(v)
	}
	return a, nil
}

// ParsePrefix parses CIDR notation ("10.1.0.0/16") into a Prefix. The
// base must be canonical — host bits below the prefix length must be
// zero — so that a configuration typo ("10.1.2.3/16") is rejected
// instead of silently masked to a different subnet.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("%w: %q has no /bits", ErrParse, s)
	}
	base, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bitsStr := s[slash+1:]
	if len(bitsStr) == 0 || len(bitsStr) > 2 || (len(bitsStr) > 1 && bitsStr[0] == '0') {
		return Prefix{}, fmt.Errorf("%w: prefix length %q", ErrParse, bitsStr)
	}
	bits, err := strconv.ParseUint(bitsStr, 10, 8)
	if err != nil || bits > 32 {
		return Prefix{}, fmt.Errorf("%w: prefix length %q", ErrParse, bitsStr)
	}
	p := PrefixFrom(base, uint8(bits))
	if p.Base != base {
		return Prefix{}, fmt.Errorf("%w: %q has host bits set below /%d", ErrParse, s, bits)
	}
	return p, nil
}

// ParsePrefixes parses a comma-separated list of CIDR prefixes, each as
// ParsePrefix does, spaces around an entry ignored. An empty entry — and so
// an empty list — is an error.
func ParsePrefixes(csv string) ([]Prefix, error) {
	var out []Prefix
	for _, part := range strings.Split(csv, ",") {
		p, err := ParsePrefix(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
