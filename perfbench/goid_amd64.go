package main

// curg returns the address of the running goroutine's runtime g,
// which identifies it while it lives.
func curg() uintptr

// goid identifies the running goroutine. Reading g from thread-local
// storage costs a few nanoseconds, where formatting a stack header
// costs microseconds per span and would dominate fine-grained spans.
func goid() uint64 { return uint64(curg()) }
