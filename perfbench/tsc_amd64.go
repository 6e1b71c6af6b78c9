package main

// ticks reads the time-stamp counter. RDTSCP waits for the instructions
// before it to finish, so an interval between two reads covers the code
// between them; a read costs a few nanoseconds, against 50 ns or more for
// time.Now on a virtual machine.
func ticks() uint64
