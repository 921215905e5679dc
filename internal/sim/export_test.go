package sim

// Entries reports how many times the engine has switched into a process
// coroutine: a start, or a resume of a process not on the hand-off stack.
func (e *Engine) Entries() uint64 { return e.entries }
