package faultnet

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// PlanFunc supplies the impairment plans for the i-th relayed connection
// (0-based): clientSend shapes the client-to-target direction, serverSend
// the target-to-client direction. Returning two zero plans passes the
// connection through clean. Connections are numbered as their dial to
// the target succeeds — one the target refused carries no stream to
// impair and takes no number — and calls are serialized.
type PlanFunc func(conn int) (clientSend, serverSend Faults)

// Proxy is a TCP fault-injection proxy: it accepts connections, dials
// the target for each, and relays both directions through per-connection
// impairment plans. It is the out-of-process face of this package — the
// CI chaos smoke runs real passived/federated binaries through it.
type Proxy struct {
	ln     net.Listener
	target string
	plan   PlanFunc
	cuts   atomic.Int64

	mu      sync.Mutex // serializes plan and guards relayed
	relayed int
}

// Listen opens the proxy's listener. Run starts relaying.
func Listen(addr, target string, plan PlanFunc) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Proxy{ln: ln, target: target, plan: plan}, nil
}

// Addr is the proxy's listening address (for :0 listeners).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Cuts reports how many proxied connections a plan's CutAt has reset so
// far — the evidence that a drill's kills fired rather than landing past
// the end of a stream shorter than their offsets.
func (p *Proxy) Cuts() int64 { return p.cuts.Load() }

// Run accepts and relays until the listener closes or the context is
// cancelled (which closes the listener).
func (p *Proxy) Run(ctx context.Context) error {
	if ctx != nil {
		if done := ctx.Done(); done != nil {
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				select {
				case <-done:
					p.ln.Close()
				case <-stop:
				}
			}()
		}
	}
	for {
		down, err := p.ln.Accept()
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		go p.relay(down)
	}
}

// relay pumps one proxied connection: two copy loops, each writing
// through its direction's impairment. A cut (or any error) on either
// direction tears down both — a connection reset, not a half-close.
func (p *Proxy) relay(down net.Conn) {
	defer down.Close()
	up, err := net.DialTimeout("tcp", p.target, 10*time.Second)
	if err != nil {
		return
	}
	defer up.Close()
	p.mu.Lock()
	clientSend, serverSend := p.plan(p.relayed)
	p.relayed++
	p.mu.Unlock()
	wUp := WrapConn(up, clientSend)
	wDown := WrapConn(down, serverSend)
	wUp.onCut = func() { p.cuts.Add(1) }
	wDown.onCut = wUp.onCut
	done := make(chan struct{}, 2)
	go func() {
		_, _ = io.Copy(wUp, down)
		up.Close()
		down.Close()
		done <- struct{}{}
	}()
	go func() {
		_, _ = io.Copy(wDown, up)
		up.Close()
		down.Close()
		done <- struct{}{}
	}()
	<-done
	<-done
}
