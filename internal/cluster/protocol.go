package cluster

import (
	"errors"

	"montage/internal/memtext"
)

// The proxy frames client and backend streams with internal/memtext,
// the vocabulary the backends use: a disagreement about where a request
// ends would desynchronize every response behind it. What is here is
// the proxy's own.

var (
	// errQuit is the clean "quit" exit from the command loop.
	errQuit = errors.New("cluster: client quit")
	// errNodeDown marks a backend request that failed because its node is
	// dead (or died) and could not be redialed within the retry window.
	errNodeDown = errors.New("cluster: node down")
)

// nodeError is the proxy's answer for a request bound to a dead node.
// It is deliberately a SERVER_ERROR: the history checker treats those
// as non-binding acks, which is exactly right — the write may or may
// not have been applied before the node died, and the proxy never
// resends (a resend could double-apply).
func nodeError(addr string) []byte {
	return memtext.ServerError("node " + addr + " unavailable")
}

// validMode reports whether s names a durability-ack mode, mirroring
// server.ParseAckMode (the proxy speaks the extension but holds only
// the name — the semantics live on the backends).
func validMode(s []byte) bool {
	switch string(s) {
	case "buffered", "sync", "epoch_wait", "epochwait", "epoch-wait":
		return true
	}
	return false
}
