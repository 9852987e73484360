package serve

// Store exposes the persistent result store (tests verify its integrity
// after cancellations).
func (s *Server) Store() *ResultStore { return s.store }

// Verify checks every committed entry's integrity (no partial entries).
func (s *ResultStore) Verify() error {
	if s.disk == nil {
		return nil
	}
	return s.disk.Verify()
}
