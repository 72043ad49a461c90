package vm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrBadBuiltin reports an unknown builtin at runtime (cannot happen
// for sema-checked programs).
var ErrBadBuiltin = errors.New("unknown builtin")

// cString reads a NUL-terminated string at addr, bounded by memory.
func (v *VM) cString(addr uint64) (string, bool) {
	if addr < nullBoundary || addr >= uint64(len(v.mem)) {
		return "", false
	}
	end := addr
	for end < uint64(len(v.mem)) && v.mem[end] != 0 {
		end++
	}
	if end == uint64(len(v.mem)) {
		return "", false
	}
	return string(v.mem[addr:end]), true
}

func (v *VM) nextLine() (string, bool) {
	if v.inPos >= len(v.input) {
		return "", false
	}
	s := v.input[v.inPos]
	v.inPos++
	return s, true
}

func (v *VM) flushOut() {
	if len(v.outBuf) > 0 {
		v.output = append(v.output, string(v.outBuf))
		v.outBuf = v.outBuf[:0]
	}
}

func (v *VM) emit(s string) {
	for _, c := range []byte(s) {
		if c == '\n' {
			v.output = append(v.output, string(v.outBuf))
			v.outBuf = v.outBuf[:0]
			continue
		}
		v.outBuf = append(v.outBuf, c)
	}
}

// callBuiltin executes one of the modelled libc functions. Writers
// deliberately mirror their C counterparts' (lack of) bounds checking:
// strcpy/strcat/read_line copy until NUL with no limit, which is the
// overflow vector the attack experiments exploit.
func (v *VM) callBuiltin(name string, args []int64) (int64, error) {
	switch name {
	case "strcmp", "strncmp":
		a, ok1 := v.cString(uint64(args[0]))
		b, ok2 := v.cString(uint64(args[1]))
		if !ok1 || !ok2 {
			return 0, fmt.Errorf("%w in %s", ErrOOB, name)
		}
		if name == "strncmp" {
			n := int(args[2])
			if n < 0 {
				n = 0
			}
			if len(a) > n {
				a = a[:n]
			}
			if len(b) > n {
				b = b[:n]
			}
		}
		return int64(strings.Compare(a, b)), nil

	case "strcpy":
		src, ok := v.cString(uint64(args[1]))
		if !ok {
			return 0, fmt.Errorf("%w in strcpy src", ErrOOB)
		}
		return 0, v.copyOut(uint64(args[0]), src)

	case "strcat":
		src, ok := v.cString(uint64(args[1]))
		if !ok {
			return 0, fmt.Errorf("%w in strcat src", ErrOOB)
		}
		dst, ok := v.cString(uint64(args[0]))
		if !ok {
			return 0, fmt.Errorf("%w in strcat dst", ErrOOB)
		}
		return 0, v.copyOut(uint64(args[0])+uint64(len(dst)), src)

	case "strncpy":
		src, ok := v.cString(uint64(args[1]))
		if !ok {
			return 0, fmt.Errorf("%w in strncpy src", ErrOOB)
		}
		n := int(args[2])
		if n <= 0 {
			return 0, nil
		}
		if len(src) >= n {
			src = src[:n-1]
		}
		return 0, v.copyOut(uint64(args[0]), src)

	case "strlen":
		s, ok := v.cString(uint64(args[0]))
		if !ok {
			return 0, fmt.Errorf("%w in strlen", ErrOOB)
		}
		return int64(len(s)), nil

	case "atoi":
		s, ok := v.cString(uint64(args[0]))
		if !ok {
			return 0, fmt.Errorf("%w in atoi", ErrOOB)
		}
		return atoi(s), nil

	case "memset":
		addr := uint64(args[0])
		n := args[2]
		if n < 0 {
			n = 0
		}
		if addr < nullBoundary || !v.inBounds(addr, uint64(n)) {
			return 0, fmt.Errorf("%w in memset", ErrOOB)
		}
		if v.readOnly(addr, int(n)) {
			return 0, fmt.Errorf("%w in memset", ErrReadOnly)
		}
		if n > 0 {
			v.ar.mark(addr, uint64(n))
		}
		b := byte(args[1])
		for i := int64(0); i < n; i++ {
			v.mem[addr+uint64(i)] = b
		}
		return 0, nil

	case "print_str":
		s, ok := v.cString(uint64(args[0]))
		if !ok {
			return 0, fmt.Errorf("%w in print_str", ErrOOB)
		}
		v.emit(s + "\n")
		return 0, nil

	case "print_int":
		v.emit(strconv.FormatInt(args[0], 10) + "\n")
		return 0, nil

	case "read_line":
		line, ok := v.nextLine()
		if !ok {
			// EOF: store an empty string, return -1 like a failed gets.
			if err := v.copyOut(uint64(args[0]), ""); err != nil {
				return 0, err
			}
			return -1, nil
		}
		if err := v.copyOut(uint64(args[0]), line); err != nil {
			return 0, err
		}
		return int64(len(line)), nil

	case "read_line_n":
		line, ok := v.nextLine()
		n := int(args[1])
		if !ok {
			line = ""
		}
		if n <= 0 {
			return -1, nil
		}
		if len(line) >= n {
			line = line[:n-1]
		}
		if err := v.copyOut(uint64(args[0]), line); err != nil {
			return 0, err
		}
		if !ok {
			return -1, nil
		}
		return int64(len(line)), nil

	case "read_int":
		line, ok := v.nextLine()
		if !ok {
			return -1, nil
		}
		return atoi(line), nil

	case "input_avail":
		if v.inPos < len(v.input) {
			return 1, nil
		}
		return 0, nil

	case "exit_prog":
		v.finish(args[0])
		return 0, nil
	}
	return 0, fmt.Errorf("%w: %s", ErrBadBuiltin, name)
}

// copyOut writes s plus a NUL terminator to addr with C-style abandon:
// no length limit beyond the end of memory itself (and the hardware's
// read-only segments).
func (v *VM) copyOut(addr uint64, s string) error {
	if addr < nullBoundary || !v.inBounds(addr, uint64(len(s))+1) {
		return fmt.Errorf("%w in string copy to %#x", ErrOOB, addr)
	}
	if v.readOnly(addr, len(s)+1) {
		return fmt.Errorf("%w in string copy to %#x", ErrReadOnly, addr)
	}
	v.ar.mark(addr, uint64(len(s))+1)
	copy(v.mem[addr:], s)
	v.mem[addr+uint64(len(s))] = 0
	return nil
}

// atoi parses a leading optionally-signed decimal prefix, like C atoi.
func atoi(s string) int64 {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	neg := false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	var n int64
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		n = n*10 + int64(s[i]-'0')
		i++
	}
	if neg {
		return -n
	}
	return n
}
