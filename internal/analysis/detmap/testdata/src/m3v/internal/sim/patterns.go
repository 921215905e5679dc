// Package sim exercises detmap's order-insensitivity heuristics and the
// ignore-directive machinery in a deterministic package.
package sim

import "sort"

type counter struct{ v int64 }

func (c *counter) value() int64 { return c.v }

// accumulate: commutative reductions over map values are order-insensitive.
func accumulate(m map[string]int64) (sum int64, n int, mask int64) {
	for _, v := range m {
		sum += v
		n++
		mask |= v
	}
	return
}

// copyKeyed: writes into another map addressed by the range key commute.
func copyKeyed(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// conditionalCount: pure conditions around commutative updates stay
// order-insensitive.
func conditionalCount(m map[string]int64) int {
	n := 0
	for _, v := range m {
		if v > 0 {
			n++
		} else {
			continue
		}
	}
	return n
}

// drain: deletions keyed by the range key commute.
func drain(m map[string]int64, dead map[string]bool) {
	for k := range dead {
		delete(m, k)
	}
}

// collectSorted: the canonical fix — collect keys, then sort them before
// any order-dependent use.
func collectSorted(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectSortedInCase: the same idiom inside a switch case clause, whose
// statements live in the clause body rather than a block.
func collectSortedInCase(m map[string]int64, op int) []string {
	var keys []string
	switch op {
	case 0:
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
	case 1:
		for k := range m { // want `range over map in deterministic package`
			keys = append(keys, k)
		}
	}
	return keys
}

// collectUnsorted is flagged: the slice keeps the random iteration order.
func collectUnsorted(m map[string]int64) []string {
	var keys []string
	for k := range m { // want `range over map in deterministic package`
		keys = append(keys, k)
	}
	return keys
}

// callInBody is flagged: the called function may observe the visit order.
func callInBody(m map[string]*counter) int64 {
	var sum int64
	for _, c := range m { // want `range over map in deterministic package`
		sum += c.value()
	}
	return sum
}

// suppressed shows a justified exception.
func suppressed(m map[string]*counter) map[string]int64 {
	out := make(map[string]int64, len(m))
	//m3vlint:ignore detmap order-insensitive: fresh map keyed by range key; value is a pure read
	for k, c := range m {
		out[k] = c.value()
	}
	return out
}
