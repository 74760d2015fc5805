package window

// Dynamic (unfixed-size) window tracking: session windows close after an
// inactivity gap, user-defined windows close at marker events (§2.1, §5.1.2).

// Sessions tracks the open session window of each registered session query.
// All queries of one group observe the same events (same key), so one
// last-event timestamp is shared; each query's gap produces its own end
// punctuation. The per-event operations (Observe, NextEnd, NeedsStart) are
// O(1): groups with thousands of session queries stay cheap, and the
// per-entry scans only run at (rare) activation, expiry, and removal.
type Sessions struct {
	entries      []sessionEntry
	lastEvent    int64
	haveEvent    bool
	inactive     int   // entries currently without an open session
	minActiveGap int64 // smallest gap among active entries; NoBoundary if none
}

type sessionEntry struct {
	id     int
	gap    int64
	active bool
	start  int64
}

// Add registers a session query with the given inactivity gap under id.
func (s *Sessions) Add(id int, gap int64) {
	s.entries = append(s.entries, sessionEntry{id: id, gap: gap})
	s.inactive++
	if s.minActiveGap == 0 {
		s.minActiveGap = NoBoundary
	}
}

// Remove drops the session query registered under id.
func (s *Sessions) Remove(id int) {
	for i, e := range s.entries {
		if e.id == id {
			if !e.active {
				s.inactive--
			}
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			s.recomputeMinGap()
			return
		}
	}
}

// Empty reports whether no session queries are registered.
func (s *Sessions) Empty() bool { return len(s.entries) == 0 }

// NeedsStart reports whether the next observed event will open a session —
// i.e. some registered session query is inactive. A session opening is a
// start punctuation (sp) and must cut the current slice (§4.1).
func (s *Sessions) NeedsStart() bool { return s.inactive > 0 }

// LastEvent returns the time of the newest observed event; only meaningful
// after the first Observe.
func (s *Sessions) LastEvent() int64 { return s.lastEvent }

// Observe records a data event at time t: it opens sessions that were
// inactive and extends running ones. Call ExpireBefore(t) first so sessions
// that the gap already closed are finalised at their true end.
func (s *Sessions) Observe(t int64) {
	s.lastEvent = t
	s.haveEvent = true
	if s.inactive == 0 {
		return
	}
	for i := range s.entries {
		if !s.entries[i].active {
			s.entries[i].active = true
			s.entries[i].start = t
		}
	}
	s.inactive = 0
	s.recomputeMinGap()
}

// NextEnd returns the earliest pending session end punctuation
// (lastEvent+gap over the active sessions), or NoBoundary.
func (s *Sessions) NextEnd() int64 {
	if !s.haveEvent || s.minActiveGap == NoBoundary {
		return NoBoundary
	}
	return s.lastEvent + s.minActiveGap
}

// ExpireBefore closes every active session whose gap elapsed at or before
// now, calling fn(id, start, end) with end = lastEvent + gap.
func (s *Sessions) ExpireBefore(now int64, fn func(id int, start, end int64)) {
	if !s.haveEvent || s.NextEnd() > now {
		return
	}
	for i := range s.entries {
		e := &s.entries[i]
		if e.active && s.lastEvent+e.gap <= now {
			e.active = false
			s.inactive++
			fn(e.id, e.start, s.lastEvent+e.gap)
		}
	}
	s.recomputeMinGap()
}

// recomputeMinGap refreshes the cached earliest gap after membership or
// activation changes.
func (s *Sessions) recomputeMinGap() {
	s.minActiveGap = NoBoundary
	for _, e := range s.entries {
		if e.active && e.gap < s.minActiveGap {
			s.minActiveGap = e.gap
		}
	}
}

// DynamicState is the serialisable state of one dynamic-window entry, used
// by engine snapshots.
type DynamicState struct {
	ID     int
	Active bool
	Start  int64
}

// State exports the tracker's dynamic state (plus the shared last-event
// time) for snapshotting.
func (s *Sessions) State() (entries []DynamicState, lastEvent int64, haveEvent bool) {
	for _, e := range s.entries {
		entries = append(entries, DynamicState{ID: e.id, Active: e.active, Start: e.start})
	}
	return entries, s.lastEvent, s.haveEvent
}

// SetState restores dynamic state captured by State onto entries registered
// with Add; entries are matched by id.
func (s *Sessions) SetState(entries []DynamicState, lastEvent int64, haveEvent bool) {
	s.lastEvent = lastEvent
	s.haveEvent = haveEvent
	for _, st := range entries {
		for i := range s.entries {
			if s.entries[i].id == st.ID {
				s.entries[i].active = st.Active
				s.entries[i].start = st.Start
			}
		}
	}
	s.inactive = 0
	for _, e := range s.entries {
		if !e.active {
			s.inactive++
		}
	}
	s.recomputeMinGap()
}

// EarliestOpenStart returns the start of the oldest active session, or
// NoBoundary.
func (s *Sessions) EarliestOpenStart() int64 {
	earliest := int64(NoBoundary)
	for _, e := range s.entries {
		if e.active && e.start < earliest {
			earliest = e.start
		}
	}
	return earliest
}

// UserDefined tracks marker-delimited windows. Every marker event ends the
// open window of each registered query and starts the next one. Observe and
// NeedsStart are O(1); the per-entry work happens at markers.
type UserDefined struct {
	entries  []udEntry
	inactive int
}

type udEntry struct {
	id     int
	active bool
	start  int64
}

// Add registers a user-defined-window query under id.
func (u *UserDefined) Add(id int) {
	u.entries = append(u.entries, udEntry{id: id})
	u.inactive++
}

// Remove drops the query registered under id.
func (u *UserDefined) Remove(id int) {
	for i, e := range u.entries {
		if e.id == id {
			if !e.active {
				u.inactive--
			}
			u.entries = append(u.entries[:i], u.entries[i+1:]...)
			return
		}
	}
}

// Empty reports whether no user-defined queries are registered.
func (u *UserDefined) Empty() bool { return len(u.entries) == 0 }

// NeedsStart reports whether the next observed event will open a window for
// some registered query — a start punctuation that must cut the slice.
func (u *UserDefined) NeedsStart() bool { return u.inactive > 0 }

// ObserveOpened records a data event at t, opening windows for queries that
// have none yet (the first window starts at the first event), and calls
// opened, when non-nil, for each entry whose window this event opens, so the
// engine can stamp the window's first slice.
func (u *UserDefined) ObserveOpened(t int64, opened func(id int)) {
	if u.inactive == 0 {
		return
	}
	for i := range u.entries {
		if !u.entries[i].active {
			u.entries[i].active = true
			u.entries[i].start = t
			if opened != nil {
				opened(u.entries[i].id)
			}
		}
	}
	u.inactive = 0
}

// Marker handles a boundary marker at time t: every open window ends at t
// (fn(id, start, t)) and the next window opens at t.
func (u *UserDefined) Marker(t int64, fn func(id int, start, end int64)) {
	for i := range u.entries {
		e := &u.entries[i]
		if e.active {
			fn(e.id, e.start, t)
		}
		e.active = true
		e.start = t
	}
	u.inactive = 0
}

// State exports the tracker's dynamic state for snapshotting.
func (u *UserDefined) State() []DynamicState {
	var out []DynamicState
	for _, e := range u.entries {
		out = append(out, DynamicState{ID: e.id, Active: e.active, Start: e.start})
	}
	return out
}

// SetState restores dynamic state captured by State, matching by id.
func (u *UserDefined) SetState(entries []DynamicState) {
	for _, st := range entries {
		for i := range u.entries {
			if u.entries[i].id == st.ID {
				u.entries[i].active = st.Active
				u.entries[i].start = st.Start
			}
		}
	}
	u.inactive = 0
	for _, e := range u.entries {
		if !e.active {
			u.inactive++
		}
	}
}

// EarliestOpenStart returns the start of the oldest open user-defined
// window, or NoBoundary.
func (u *UserDefined) EarliestOpenStart() int64 {
	earliest := int64(NoBoundary)
	for _, e := range u.entries {
		if e.active && e.start < earliest {
			earliest = e.start
		}
	}
	return earliest
}
