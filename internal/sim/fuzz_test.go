package sim

import "testing"

// FuzzEngineOrder runs checkOrder with its choices read from the fuzz
// input, two bytes per draw (zero once the input runs out), so the
// fuzzer steers deltas, cancellations and RunUntil jumps directly.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0xff, 0xff, 0, 5})
	f.Add([]byte("calendar wheel with an overflow heap"))
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := func(n int) int {
			if len(data) < 2 {
				return 0
			}
			v := int(data[0])<<8 | int(data[1])
			data = data[2:]
			return v % n
		}
		if err := checkOrder(draw); err != nil {
			t.Fatal(err)
		}
	})
}
