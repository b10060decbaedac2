package tensor

// SetSIMD lets the external test package switch the kernel backend (see
// setSIMD) while it drives autodiff ops, which this package cannot import.
var SetSIMD = setSIMD
