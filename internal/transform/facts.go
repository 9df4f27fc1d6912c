package transform

import "sparkgo/internal/ir"

// factTable is the branch-scoped fact map shared by CSE (available
// expressions), CopyProp (copies) and ConstProp (constants). A branch or
// loop body runs on the same table between mark and rollback: every
// write made inside the scope is recorded in an undo log, and rollback
// replays the log backwards, so the table — and its kill index — is
// restored exactly, with no per-branch copy.
//
// The kill index maps a variable to the keys whose fact a write to that
// variable can invalidate (the index hook decides which variables each
// fact involves; anyGlobalMarker collects facts touching a global). It
// is advisory: kill re-checks every candidate against the fact itself,
// so a stale entry (the key was deleted, or now holds another fact)
// never kills a live fact. A kill empties the variable's list, which
// keeps the total index work linear in the number of facts recorded.
type factTable[K, V comparable] struct {
	m     map[K]V
	users map[*ir.Var][]K
	// index appends to dst the variables whose writes can kill the fact
	// k → v; nil when only direct key deletion kills facts.
	index func(k K, v V, dst []*ir.Var) []*ir.Var

	log  []factUndo[K, V]
	ulog []usersUndo[K]
	// open counts the marks not yet rolled back; writes made with no
	// open mark can never be undone and are not logged.
	open int
	// arm holds the then-arm values of open joins (see restart/merge);
	// seen stamps keys already decided during one merge.
	arm   []armFact[K, V]
	seen  map[K]int
	stamp int
	buf   []*ir.Var
}

type factUndo[K, V comparable] struct {
	key K
	old V
	had bool
}

type usersUndo[K comparable] struct {
	v   *ir.Var
	old []K
}

type armFact[K, V comparable] struct {
	key  K
	val  V
	keep bool // then-arm: fact present; after merge's scan: keep val
}

// scopeMark is a restore point: the lengths of the undo logs and of the
// then-arm stack when the scope opened.
type scopeMark struct{ facts, users, arm int }

func newFactTable[K, V comparable](index func(K, V, []*ir.Var) []*ir.Var) *factTable[K, V] {
	return &factTable[K, V]{m: map[K]V{}, users: map[*ir.Var][]K{}, index: index, seen: map[K]int{}}
}

func (t *factTable[K, V]) get(k K) (V, bool) {
	v, ok := t.m[k]
	return v, ok
}

// set records the fact k → v and indexes it under every variable that
// can kill it.
func (t *factTable[K, V]) set(k K, v V) {
	if t.open > 0 {
		old, had := t.m[k]
		t.log = append(t.log, factUndo[K, V]{k, old, had})
	}
	t.m[k] = v
	if t.index == nil {
		return
	}
	t.buf = t.index(k, v, t.buf[:0])
	for _, u := range t.buf {
		t.setUsers(u, append(t.users[u], k))
	}
}

func (t *factTable[K, V]) del(k K) {
	old, had := t.m[k]
	if !had {
		return
	}
	if t.open > 0 {
		t.log = append(t.log, factUndo[K, V]{k, old, had})
	}
	delete(t.m, k)
}

// setUsers replaces u's index list, logging the old slice header. Lists
// only grow or are replaced by nil, so the elements a logged header
// covers are never overwritten while that log entry is live.
func (t *factTable[K, V]) setUsers(u *ir.Var, keys []K) {
	if t.open > 0 {
		t.ulog = append(t.ulog, usersUndo[K]{u, t.users[u]})
	}
	t.putUsers(u, keys)
}

// putUsers stores u's list, keeping no entry for an empty one.
func (t *factTable[K, V]) putUsers(u *ir.Var, keys []K) {
	if keys == nil {
		delete(t.users, u)
	} else {
		t.users[u] = keys
	}
}

// kill deletes every fact indexed under u for which involves holds, then
// empties u's index list. involves must be exactly the relation the
// index hook records under u, so that no live fact involving u survives
// with its entry gone.
func (t *factTable[K, V]) kill(u *ir.Var, involves func(k K, v V) bool) {
	keys := t.users[u]
	if len(keys) == 0 {
		return
	}
	for _, k := range keys {
		if v, ok := t.m[k]; ok && involves(k, v) {
			t.del(k)
		}
	}
	t.setUsers(u, nil)
}

// mark opens a scope.
func (t *factTable[K, V]) mark() scopeMark {
	t.open++
	return scopeMark{len(t.log), len(t.ulog), len(t.arm)}
}

// rollback closes the scope opened by m, restoring the table and its
// index exactly to their state at mark time.
func (t *factTable[K, V]) rollback(m scopeMark) {
	for i := len(t.log) - 1; i >= m.facts; i-- {
		u := t.log[i]
		if u.had {
			t.m[u.key] = u.old
		} else {
			delete(t.m, u.key)
		}
	}
	for i := len(t.ulog) - 1; i >= m.users; i-- {
		u := t.ulog[i]
		t.putUsers(u.v, u.old)
	}
	t.log = t.log[:m.facts]
	t.ulog = t.ulog[:m.users]
	t.open--
}

// restart ends the then-arm of a two-way join opened by m: it saves the
// final value of every key the arm wrote, rolls the table back, and
// reopens the scope for the else-arm. Close the join by passing the
// returned mark to merge.
func (t *factTable[K, V]) restart(m scopeMark) scopeMark {
	for _, u := range t.log[m.facts:] {
		v, ok := t.m[u.key]
		t.arm = append(t.arm, armFact[K, V]{u.key, v, ok})
	}
	t.rollback(m)
	n := t.mark()
	n.arm = m.arm
	return n
}

// merge ends the else-arm of a join (m is restart's result) and leaves
// the table holding exactly the facts equal at the end of both arms.
// Only keys in the two arms' logs can differ; every other fact holds on
// both paths and is left alone.
func (t *factTable[K, V]) merge(m scopeMark) {
	t.stamp++
	arm := t.arm[m.arm:]
	for i := range arm {
		a := &arm[i]
		ev, ok := t.m[a.key]
		a.keep = a.keep && ok && ev == a.val
		t.seen[a.key] = t.stamp
	}
	// Keys only the else-arm wrote: their then-value is the value at
	// mark time, which the first log entry for the key holds.
	for _, u := range t.log[m.facts:] {
		if t.seen[u.key] == t.stamp {
			continue
		}
		t.seen[u.key] = t.stamp
		ev, ok := t.m[u.key]
		t.arm = append(t.arm, armFact[K, V]{u.key, u.old, u.had && ok && ev == u.old})
	}
	t.rollback(m)
	for _, a := range t.arm[m.arm:] {
		if !a.keep {
			t.del(a.key)
		} else if v, ok := t.m[a.key]; !ok || v != a.val {
			t.set(a.key, a.val)
		}
	}
	t.arm = t.arm[:m.arm]
}
