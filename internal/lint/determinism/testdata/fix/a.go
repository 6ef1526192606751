// Fixture for the determinism rewrite advice: a key-only map range
// with order-sensitive effects is told to iterate
// slices.Sorted(maps.Keys(m)).
package a

import (
	"fmt"
)

func Emit(m map[string]int) {
	for k := range m { // want `map iteration order is random`
		fmt.Println(k, m[k])
	}
}
