package backoff

import (
	"math"
	"math/big"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestDelayExponentialAndCapped(t *testing.T) {
	p := Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second}
	wants := []time.Duration{
		50 * time.Millisecond,
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second, // capped
		2 * time.Second,
	}
	for i, want := range wants {
		if got := p.Delay(i+1, 0, nil); got != want {
			t.Fatalf("attempt %d: delay = %v, want %v", i+1, got, want)
		}
	}
	// Shift overflow clamps to Max instead of going negative.
	if got := p.Delay(70, 0, nil); got != 2*time.Second {
		t.Fatalf("overflow attempt: delay = %v, want cap", got)
	}
}

func TestDelayHonoursRetryAfter(t *testing.T) {
	p := Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second}
	if got := p.Delay(1, 700*time.Millisecond, nil); got != 700*time.Millisecond {
		t.Fatalf("retry-after floor: delay = %v, want 700ms", got)
	}
	// A hint shorter than the computed backoff does not shrink it.
	if got := p.Delay(4, 10*time.Millisecond, nil); got != 400*time.Millisecond {
		t.Fatalf("short hint: delay = %v, want 400ms", got)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name  string
		value string
		want  time.Duration
	}{
		{"empty", "", 0},
		{"delta seconds", "7", 7 * time.Second},
		{"delta with spaces", "  120  ", 2 * time.Minute},
		{"zero delta", "0", 0},
		{"negative delta", "-3", 0},
		{"imf-fixdate future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"imf-fixdate past", now.Add(-time.Hour).Format(http.TimeFormat), 0},
		{"rfc850 future", now.Add(30 * time.Second).Format("Monday, 02-Jan-06 15:04:05 GMT"), 30 * time.Second},
		{"asctime future", now.Add(45 * time.Second).Format(time.ANSIC), 45 * time.Second},
		{"garbage words", "soonish", 0},
		{"garbage float", "1.5", 0},
		{"garbage date", "Feb 30 25:61:00", 0},
		// Delta-seconds saturate at the largest time.Duration instead of
		// wrapping on the multiply by time.Second.
		{"delta at duration limit", "9223372036", 9223372036 * time.Second},
		{"delta wrapping negative", "9223372037", math.MaxInt64},
		{"delta wrapping small", "18446744074", math.MaxInt64},
		{"delta wrapping positive", "27670116110", math.MaxInt64},
		{"delta beyond int64", "99999999999999999999", math.MaxInt64},
		{"negative beyond int64", "-99999999999999999999", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ParseRetryAfter(tc.value, now); got != tc.want {
				t.Fatalf("ParseRetryAfter(%q) = %v, want %v", tc.value, got, tc.want)
			}
		})
	}
}

// FuzzParseRetryAfter feeds arbitrary header values to the parser. It must
// never panic or return a negative wait, and a value that is all digits n
// after trimming must give min(n seconds, the largest time.Duration).
func FuzzParseRetryAfter(f *testing.F) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	largest := big.NewInt(math.MaxInt64)
	f.Fuzz(func(t *testing.T, value string) {
		got := ParseRetryAfter(value, now)
		if got < 0 {
			t.Fatalf("ParseRetryAfter(%q) = %v, negative", value, got)
		}
		digits := strings.TrimSpace(value)
		if digits == "" || strings.Trim(digits, "0123456789") != "" {
			return
		}
		n, _ := new(big.Int).SetString(digits, 10)
		want := n.Mul(n, big.NewInt(int64(time.Second)))
		if want.Cmp(largest) > 0 {
			want = largest
		}
		if got != time.Duration(want.Int64()) {
			t.Fatalf("ParseRetryAfter(%q) = %v, want %v", value, got, time.Duration(want.Int64()))
		}
	})
}

func TestDelayJitterDeterministicAndBounded(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: 2 * time.Second}
	a := NewJitter(7, "test/retry/a")
	b := NewJitter(7, "test/retry/a")
	for i := 1; i <= 16; i++ {
		da := p.Delay(i, 0, a)
		db := p.Delay(i, 0, b)
		if da != db {
			t.Fatalf("attempt %d: same seed/stream diverged: %v vs %v", i, da, db)
		}
		full := p.Delay(i, 0, nil)
		if da < full/2 || da >= full {
			t.Fatalf("attempt %d: jittered delay %v outside [%v, %v)", i, da, full/2, full)
		}
	}
	// Different streams draw different factors (overwhelmingly likely
	// somewhere in 16 draws).
	c := NewJitter(7, "test/retry/c")
	same := true
	a2 := NewJitter(7, "test/retry/a")
	for i := 1; i <= 16; i++ {
		if p.Delay(i, 0, a2) != p.Delay(i, 0, c) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct streams produced identical delay sequences")
	}
}
