package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// genPeer is one of the load generator's BGP sessions into the
// validator. It writes pre-encoded UPDATE bytes straight to the socket,
// so the generator's cost does not depend on the codec under test, and
// drains what the validator exports back, counting UPDATEs.
type genPeer struct {
	as      astypes.ASN
	conn    net.Conn
	drained atomic.Int64 // UPDATEs received from the validator
	done    chan struct{}
}

// dialPeer opens a session as AS as. The OPEN proposes hold time 0,
// which turns keepalives off on both sides (RFC 4271 §4.2): the
// generator never has to interleave them with its load.
func dialPeer(addr string, as astypes.ASN) (*genPeer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial validator: %w", err)
	}
	if err := handshake(conn, as); err != nil {
		conn.Close()
		return nil, fmt.Errorf("peer AS %d: %w", as, err)
	}
	p := &genPeer{as: as, conn: conn, done: make(chan struct{})}
	go p.drain()
	return p, nil
}

func handshake(conn net.Conn, as astypes.ASN) error {
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	open := &wire.Open{Version: wire.Version4, AS: as, HoldTime: 0, BGPID: uint32(as)}
	if err := wire.WriteMessage(conn, open); err != nil {
		return fmt.Errorf("send OPEN: %w", err)
	}
	msg, err := wire.ReadMessage(conn)
	if err != nil {
		return fmt.Errorf("read OPEN: %w", err)
	}
	if _, ok := msg.(*wire.Open); !ok {
		return fmt.Errorf("expected OPEN, got %s", msg.Type())
	}
	if err := wire.WriteMessage(conn, &wire.Keepalive{}); err != nil {
		return fmt.Errorf("send KEEPALIVE: %w", err)
	}
	msg, err = wire.ReadMessage(conn)
	if err != nil {
		return fmt.Errorf("read KEEPALIVE: %w", err)
	}
	if _, ok := msg.(*wire.Keepalive); !ok {
		return fmt.Errorf("expected KEEPALIVE, got %s", msg.Type())
	}
	return conn.SetDeadline(time.Time{})
}

// drain reads frames until the connection closes, counting UPDATEs
// without decoding them.
func (p *genPeer) drain() {
	defer close(p.done)
	br := bufio.NewReaderSize(p.conn, 256<<10)
	var hdr [wire.HeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint16(hdr[16:18])) - wire.HeaderLen
		if n < 0 {
			return
		}
		if _, err := br.Discard(n); err != nil {
			return
		}
		if wire.MsgType(hdr[18]) == wire.MsgUpdate {
			p.drained.Add(1)
		}
	}
}

// close ends the session and waits for the drain goroutine.
func (p *genPeer) close() {
	p.conn.Close()
	<-p.done
}

// closeAll closes every peer in parallel.
func closeAll(peers []*genPeer) {
	var wg sync.WaitGroup
	for _, p := range peers {
		if p == nil {
			continue
		}
		wg.Add(1)
		go func(p *genPeer) {
			defer wg.Done()
			p.close()
		}(p)
	}
	wg.Wait()
}

// stream is a sequence of pre-encoded messages in one buffer.
type stream struct {
	buf []byte
	off []int // message i is buf[off[i]:off[i+1]]
}

func (s *stream) add(u *wire.Update) error {
	if len(s.off) == 0 {
		s.off = append(s.off, 0)
	}
	var err error
	s.buf, err = wire.AppendMessage(s.buf, u)
	if err != nil {
		return fmt.Errorf("encode UPDATE: %w", err)
	}
	s.off = append(s.off, len(s.buf))
	return nil
}

func (s *stream) len() int {
	if len(s.off) == 0 {
		return 0
	}
	return len(s.off) - 1
}

// msgs returns the bytes of messages [i, j).
func (s *stream) msgs(i, j int) []byte { return s.buf[s.off[i]:s.off[j]] }
