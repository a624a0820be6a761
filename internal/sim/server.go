package sim

// Server models a single-server FIFO resource: at most one request is in
// service at a time and waiters are served in arrival order. It is the
// building block for the flash device queue and the network segments
// ("each segment can carry one packet at a time", paper §5).
//
// Because arrival order equals event order and event order is
// deterministic, tracking only the time the server next becomes free is
// sufficient: a request arriving at time t begins service at max(t, freeAt).
type Server struct {
	eng    *Engine
	name   string
	freeAt Time

	// Utilisation accounting.
	busy     Time // total service time granted
	waited   Time // total queueing delay experienced
	requests uint64
}

// NewServer returns a FIFO server attached to the engine.
func NewServer(eng *Engine, name string) *Server {
	return &Server{eng: eng, name: name}
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Use enqueues a request with the given service duration and calls done when
// the request completes service. done may be nil.
func (s *Server) Use(service Time, done func()) {
	if done == nil {
		// Schedule the shared placeholder completion so Engine.Run does
		// not return while the server is still busy; callers rely on a
		// drained engine meaning idle hardware. One package-level no-op
		// serves every such request — nothing is allocated per call.
		done = noop
	}
	s.eng.At(s.admit(service), done)
}

// Use2 is the allocation-free form of Use: fn is a static func(any) run
// with arg at completion. A nil fn schedules the shared placeholder
// completion, like a nil done in Use.
func (s *Server) Use2(service Time, fn func(any), arg any) {
	s.eng.At2(s.admit(service), fn, arg)
}

// admit performs the FIFO bookkeeping shared by both Use forms for a
// request arriving now and returns its completion time.
func (s *Server) admit(service Time) Time {
	if service < 0 {
		panic("sim: negative service time")
	}
	now := s.eng.Now()
	start := s.freeAt
	if start < now {
		start = now
	}
	finish := start + service
	s.freeAt = finish
	s.busy += service
	s.waited += start - now
	s.requests++
	return finish
}

// FreeAt returns the time the server next becomes idle.
func (s *Server) FreeAt() Time { return s.freeAt }

// Busy returns the total service time granted so far.
func (s *Server) Busy() Time { return s.busy }

// Waited returns the total queueing delay experienced by all requests.
func (s *Server) Waited() Time { return s.waited }

// Requests returns the number of requests served or in service.
func (s *Server) Requests() uint64 { return s.requests }

// Utilisation returns busy time divided by elapsed time, in [0, 1].
func (s *Server) Utilisation() float64 {
	if s.eng.Now() == 0 {
		return 0
	}
	u := float64(s.busy) / float64(s.eng.Now())
	if u > 1 {
		u = 1
	}
	return u
}
