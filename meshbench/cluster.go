package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	om "obliviousmesh"
	"obliviousmesh/internal/gateway"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/server"
)

// countingListener counts the TCP connections peers open to a server:
// the benchmark's own view of connection reuse, taken without any
// option in the program under test.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// node is one HTTP server on a loopback port, served the way the
// daemons serve: a plain http.Server around the service handler.
type node struct {
	url  string
	ln   *countingListener
	hs   *http.Server
	done chan struct{} // closed once Serve has returned
}

func listen(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		url:  "http://" + ln.Addr().String(),
		ln:   &countingListener{Listener: ln},
		hs:   &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(n.ln) // returns http.ErrServerClosed on close
	}()
	return n, nil
}

// close stops the server and waits for Serve to return; closing twice
// is harmless.
func (n *node) close() {
	_ = n.hs.Close()
	<-n.done
}

// cluster is the system under test: standalone daemons that take
// traffic directly, plus a gateway over its own backend daemons. Every
// server is built with the daemons' default settings; only the mesh,
// the seed, k and the backend list are set.
type cluster struct {
	daemons  []*server.Server // standalone daemons, then the backends
	nodes    []*node          // nodes[i] serves daemons[i]
	backends []*node          // the tail of nodes behind the gateway
	gw       *gateway.Gateway
	gwNode   *node
}

// startCluster builds standalone+backends daemons and a gateway over
// the backends, and returns once every server answers /healthz and
// the gateway has admitted its backends.
func startCluster(ctx context.Context, m *mesh.Mesh, seed uint64, k, standalone, backends int) (*cluster, error) {
	c := &cluster{}
	for i := 0; i < standalone+backends; i++ {
		s, err := server.New(server.Config{Mesh: m, Seed: seed, KSample: k})
		if err != nil {
			c.close()
			return nil, err
		}
		n, err := listen(s.Handler())
		if err != nil {
			c.close()
			return nil, err
		}
		c.daemons = append(c.daemons, s)
		c.nodes = append(c.nodes, n)
	}
	c.backends = c.nodes[standalone:]
	urls := make([]string, len(c.backends))
	for i, n := range c.backends {
		urls[i] = n.url
	}
	g, err := gateway.New(ctx, gateway.Config{Backends: urls})
	if err != nil {
		c.close()
		return nil, err
	}
	c.gw = g
	if c.gwNode, err = listen(g.Handler()); err != nil {
		c.close()
		return nil, err
	}
	for _, n := range append(c.nodes, c.gwNode) {
		if err := waitHealthy(ctx, n.url); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func waitHealthy(ctx context.Context, url string) error {
	cl := om.NewClient(url, om.ClientConfig{MaxRetries: -1})
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := cl.Health(ctx)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %w", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// retire stops standalone daemon i and drops it, so the heap it holds
// (its chain cache above all) no longer burdens the garbage collector
// that the in-process servers share. In a deployment every daemon has a
// heap and a collector of its own.
func (c *cluster) retire(i int) {
	c.nodes[i].close()
	c.nodes[i], c.daemons[i] = nil, nil
}

// close stops every server of the cluster and waits for them.
func (c *cluster) close() {
	if c.gwNode != nil {
		c.gwNode.close()
	}
	if c.gw != nil {
		c.gw.Close()
	}
	for _, n := range c.nodes {
		if n != nil {
			n.close()
		}
	}
	// The servers and the clients share the process-wide default
	// transport; drop its idle connections to the closed ports.
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// client returns a typed client of url with retries off, so a shed
// request counts as a failure instead of hiding behind backoff.
func client(url string) *om.Client {
	return om.NewClient(url, om.ClientConfig{MaxRetries: -1})
}
