//go:build !linux

package server

// rawConnState has no scratch off linux.
type rawConnState struct{}

// reactorState has no reactor off linux.
type reactorState struct{}

// tryRawConn always falls back to the blocking driver off linux.
func (s *Server) tryRawConn(c *conn) bool { return false }

func (s *Server) reactorDel(c *conn) {}

func (s *Server) closeReactor() {}

// flushRaw is never reached off linux (conn.raw is never set).
func (c *conn) flushRaw() {}
