// Second fixture file: a file with no import block gets the same
// advice.
package a

func Collect(m map[int]string) []string {
	var out []string
	for k := range m { // want `map iteration order is random`
		out = append(out, m[k])
	}
	return out
}
