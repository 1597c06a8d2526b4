//go:build !gatcheck

package sim

// checkRecycle is off outside the gatcheck build (see check_on.go).
const checkRecycle = false
