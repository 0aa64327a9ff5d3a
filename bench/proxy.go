package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"time"
)

// countingProxy sits between the dist workers and the coordinator in the
// traced pass and counts what crosses the wire: HTTP requests (one per
// RPC) and raw TCP bytes in both directions on the worker-facing side,
// headers included. The dist package exposes neither number.
type countingProxy struct {
	rpcs  atomic.Int64
	bytes atomic.Int64
	srv   *http.Server
}

// start listens on a loopback port and forwards to target ("host:port");
// it returns the base URL workers should dial.
func (p *countingProxy) start(target string) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	rp := httputil.NewSingleHostReverseProxy(&url.URL{Scheme: "http", Host: target})
	p.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.rpcs.Add(1)
		rp.ServeHTTP(w, r)
	})}
	go p.srv.Serve(&countingListener{Listener: ln, n: &p.bytes}) //nolint:errcheck // ErrServerClosed on stop
	return "http://" + ln.Addr().String(), nil
}

func (p *countingProxy) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if p.srv.Shutdown(ctx) != nil {
		p.srv.Close()
	}
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}
