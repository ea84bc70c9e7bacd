package server

import "errors"

// Responses only the server produces; the ones every endpoint shares,
// and the line and body framing, live in internal/memtext.
var (
	respStored    = []byte("STORED\r\n")
	respNotStored = []byte("NOT_STORED\r\n")
	respExists    = []byte("EXISTS\r\n")
	respNotFound  = []byte("NOT_FOUND\r\n")
	respDeleted   = []byte("DELETED\r\n")
	respTouched   = []byte("TOUCHED\r\n")
	respCrashLost = []byte("SERVER_ERROR crash: write may not be durable\r\n")
)

var (
	// errProtocol marks unrecoverable framing damage: the connection must
	// close because the next request boundary is unknown.
	errProtocol = errors.New("server: protocol framing error")
	// errQuit is the clean "quit" exit from the command loop.
	errQuit = errors.New("server: client quit")
	// errThrottle pauses ingestion: the response queue is full, so the
	// pump must stop consuming until a flush drains it.
	errThrottle = errors.New("server: pipeline full")
)
