package memtext

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestAppendFields(t *testing.T) {
	lines := []string{
		"",
		" ",
		"\r",
		"get",
		"get k",
		"  get   k1\tk2  ",
		"set k 0 0 5 noreply\r",
		"get\vk\fk2",
		"get\u00a0k",       // NBSP is a field separator for bytes.Fields
		"get\u2003k\u3000", // em space, ideographic space
		"get k\xffz \xc2",  // invalid UTF-8 is not space
		"get été café",     // multi-byte non-space runes stay inside a field
	}
	for _, line := range lines {
		got := AppendFields(nil, []byte(line))
		want := bytes.Fields([]byte(line))
		if len(got) != len(want) {
			t.Errorf("AppendFields(%q) = %q, want %q", line, got, want)
			continue
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("AppendFields(%q)[%d] = %q, want %q", line, i, got[i], want[i])
			}
		}
	}
}

func TestAppendFieldsReusesAndAliases(t *testing.T) {
	line := []byte("get alpha beta")
	toks := make([][]byte, 0, 8)
	toks = AppendFields(toks, line)
	// Extending a non-empty dst keeps what was there.
	toks = AppendFields(toks, []byte("x"))
	if len(toks) != 4 || string(toks[0]) != "get" || string(toks[3]) != "x" {
		t.Fatalf("tokens = %q", toks)
	}
	// Fields alias the line, they are not copies.
	line[4] = 'A'
	if string(toks[1]) != "Alpha" {
		t.Fatalf("token does not alias the line: %q", toks[1])
	}
	if n := testing.AllocsPerRun(100, func() { toks = AppendFields(toks[:0], line) }); n != 0 {
		t.Fatalf("AppendFields into a sized slice allocates %v times", n)
	}
}

func TestParseUint(t *testing.T) {
	inputs := []string{
		"", "0", "7", "007", "65535", "65536", "4294967295", "4294967296",
		"18446744073709551615", "18446744073709551616", "99999999999999999999",
		"+1", "-1", "1 ", " 1", "1a", "0x10", "1_000",
	}
	for _, bits := range []int{16, 32, 64} {
		for _, in := range inputs {
			got, ok := ParseUint([]byte(in), bits)
			want, err := strconv.ParseUint(in, 10, bits)
			if ok != (err == nil) || ok && got != want {
				t.Errorf("ParseUint(%q, %d) = %d, %v; strconv says %d, %v", in, bits, got, ok, want, err)
			}
		}
	}
	if _, ok := ParseUint(nil, 64); ok {
		t.Error("ParseUint(nil) accepted")
	}
}

func TestParseInt(t *testing.T) {
	inputs := []string{
		"", "+", "-", "0", "-0", "+0", "42", "-42", "+42", "0042",
		strconv.FormatInt(math.MaxInt64, 10), "9223372036854775808",
		strconv.FormatInt(math.MinInt64, 10), "-9223372036854775809",
		"--1", "+-1", "1-", "1.0", " 1", "1 ", "1e3",
	}
	for _, in := range inputs {
		got, ok := ParseInt([]byte(in))
		want, err := strconv.ParseInt(in, 10, 64)
		if ok != (err == nil) || ok && got != want {
			t.Errorf("ParseInt(%q) = %d, %v; strconv says %d, %v", in, got, ok, want, err)
		}
	}
}

func TestValidKey(t *testing.T) {
	long := strings.Repeat("k", MaxKeyLen)
	cases := []struct {
		key  string
		want bool
	}{
		{"", false},
		{"k", true},
		{long, true},
		{long + "k", false}, // 251 bytes
		{"a b", false},
		{"a\tb", false},
		{"a\r", false},
		{"a\nb", false},
		{"a\x00b", false},
		{"a\x1fb", false},
		{"a\x7fb", false},
		{"!~", true},       // the edges of the printable range
		{"café", true},     // bytes >= 0x80 are allowed
		{"\xff\xfe", true}, // even when they are not UTF-8
		{strings.Repeat("é", MaxKeyLen/2+1), false}, // the limit counts bytes, not runes
	}
	for _, c := range cases {
		if got := ValidKey([]byte(c.key)); got != c.want {
			t.Errorf("ValidKey(%q) = %v, want %v", c.key, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	if String(nil) != "" || String([]byte{}) != "" {
		t.Fatal("empty input must give the empty string")
	}
	b := []byte("hello")
	s := String(b)
	if s != "hello" {
		t.Fatalf("String = %q", s)
	}
	b[0] = 'j'
	if s != "jello" {
		t.Fatal("String copied; it must alias its argument")
	}
}
