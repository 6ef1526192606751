// Fixture for the faulterr rewrite advice: every Errorf finding says
// to use %w for the error argument, whatever shape its format has.
package a

import (
	"errors"
	"fmt"
)

func Restore(path string, cause error) error {
	return fmt.Errorf("restore %s: %v", path, cause) // want `fmt\.Errorf without %w`
}

func Seal(err error) error {
	return fmt.Errorf("seal snapshot: %s", err) // want `fmt\.Errorf without %w`
}

func Legacy() error {
	return errors.New("unclassified") // want `bare errors\.New`
}

func Padded(err error) error {
	// %-20s carries a flag; the advice is the same.
	return fmt.Errorf("padded %-20s", err) // want `fmt\.Errorf without %w`
}
