package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file implements the textual forms the declarative scenario
// specs (internal/spec) use for physical quantities: "150us", "2.5ms",
// "100KB", "64KiB", "20Mbps". Formatting is exact — Format* picks the
// largest unit the value divides evenly, so Parse*(Format*(v)) == v
// for every representable value — while parsing additionally accepts
// decimal multipliers for hand-written specs.

// The suffix tables. parseQuantity matches the whole suffix after the
// number, so "ms" never matches the "s" entry and "KiB" is never split.
var timeUnits = map[string]Time{
	"ns": Nanosecond,
	"us": Microsecond,
	"µs": Microsecond,
	"ms": Millisecond,
	"s":  Second,
}

// ParseTime parses a duration like "150us", "2.5ms", "3s" or "250ns".
// A bare number is nanoseconds.
func ParseTime(s string) (Time, error) { return parseQuantity(s, "time", timeUnits) }

// FormatTime renders t exactly: the largest unit of s/ms/us/ns that
// divides it evenly, as an integer.
func FormatTime(t Time) string {
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	switch {
	case t != 0 && t%Second == 0:
		return fmt.Sprintf("%s%ds", neg, t/Second)
	case t != 0 && t%Millisecond == 0:
		return fmt.Sprintf("%s%dms", neg, t/Millisecond)
	case t != 0 && t%Microsecond == 0:
		return fmt.Sprintf("%s%dus", neg, t/Microsecond)
	default:
		return fmt.Sprintf("%s%dns", neg, int64(t))
	}
}

var byteUnits = map[string]Bytes{
	"KiB": KiB,
	"MiB": MiB,
	"GiB": 1024 * MiB,
	"KB":  KB,
	"MB":  MB,
	"GB":  1000 * MB,
	"B":   Byte,
}

// ParseBytes parses a size like "100KB", "64KiB", "1460B" or "10MB".
// A bare number is bytes.
func ParseBytes(s string) (Bytes, error) { return parseQuantity(s, "size", byteUnits) }

// FormatBytes renders n exactly, preferring decimal units and falling
// back to binary ones (so 64 KiB round-trips as "64KiB", not
// "65536B").
func FormatBytes(n Bytes) string {
	neg := ""
	if n < 0 {
		neg, n = "-", -n
	}
	switch {
	case n != 0 && n%MB == 0:
		return fmt.Sprintf("%s%dMB", neg, n/MB)
	case n != 0 && n%KB == 0:
		return fmt.Sprintf("%s%dKB", neg, n/KB)
	case n != 0 && n%MiB == 0:
		return fmt.Sprintf("%s%dMiB", neg, n/MiB)
	case n != 0 && n%KiB == 0:
		return fmt.Sprintf("%s%dKiB", neg, n/KiB)
	default:
		return fmt.Sprintf("%s%dB", neg, int64(n))
	}
}

var bandwidthUnits = map[string]Bandwidth{
	"Gbps": Gbps,
	"Mbps": Mbps,
	"Kbps": Kbps,
	"bps":  BitPerSecond,
}

// ParseBandwidth parses a rate like "1Gbps", "20Mbps" or "2.5Gbps". A
// bare number is bits per second.
func ParseBandwidth(s string) (Bandwidth, error) {
	return parseQuantity(s, "bandwidth", bandwidthUnits)
}

// FormatBandwidth renders b exactly with the largest even unit.
func FormatBandwidth(b Bandwidth) string {
	neg := ""
	if b < 0 {
		neg, b = "-", -b
	}
	switch {
	case b != 0 && b%Gbps == 0:
		return fmt.Sprintf("%s%dGbps", neg, b/Gbps)
	case b != 0 && b%Mbps == 0:
		return fmt.Sprintf("%s%dMbps", neg, b/Mbps)
	case b != 0 && b%Kbps == 0:
		return fmt.Sprintf("%s%dKbps", neg, b/Kbps)
	default:
		return fmt.Sprintf("%s%dbps", neg, int64(b))
	}
}

// parseQuantity splits "<number><suffix>" and scales by the suffix's
// entry in table. Integer values scale in integer arithmetic (exact);
// decimals go through float64 and round to the nearest base unit.
func parseQuantity[T ~int64](s, what string, table map[string]T) (T, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("units: empty %s", what)
	}
	i := len(s)
	for i > 0 {
		c := s[i-1]
		if c >= '0' && c <= '9' || c == '.' {
			break
		}
		i--
	}
	num, suffix := s[:i], strings.TrimSpace(s[i:])
	unit := int64(1)
	if suffix != "" {
		u, ok := table[suffix]
		if !ok {
			return 0, fmt.Errorf("units: unknown %s unit %q in %q", what, suffix, s)
		}
		unit = int64(u)
	}
	if n, err := strconv.ParseInt(num, 10, 64); err == nil {
		if n != 0 && (n*unit)/unit != n {
			return 0, fmt.Errorf("units: %s %q overflows", what, s)
		}
		return T(n * unit), nil
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad %s %q", what, s)
	}
	v := f * float64(unit)
	if math.IsNaN(v) || v > math.MaxInt64 || v < math.MinInt64 {
		return 0, fmt.Errorf("units: %s %q out of range", what, s)
	}
	return T(math.Round(v)), nil
}
