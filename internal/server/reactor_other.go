//go:build !linux

package server

// reactorState has no reactor off linux.
type reactorState struct{}

// rawSource leaves every connection to a streamSource off linux.
func (s *Server) rawSource(c *conn) source { return nil }
