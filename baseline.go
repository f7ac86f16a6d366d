package immune

import (
	"fmt"

	"immune/internal/orb"
)

// Baseline is the unreplicated, non-survivable reference deployment of
// Figure 7 case 1: a client and server object over a plain ORB without the
// Immune system, so throughput is determined by the ORB mechanisms alone.
// Two transports are available: in-process loopback, and genuine IIOP over
// a TCP socket (closer to the paper's VisiBroker deployment).
type Baseline struct {
	adapter *orb.Adapter
	orb     *orb.ORB
	server  *orb.TCPServer
	tcp     *orb.TCPTransport
}

// NewBaseline creates a loopback baseline hosting the servant under
// objectKey.
func NewBaseline(objectKey string, servant Servant) (*Baseline, error) {
	adapter := orb.NewAdapter()
	if err := adapter.Register(objectKey, servant); err != nil {
		return nil, err
	}
	return &Baseline{
		adapter: adapter,
		orb:     orb.New(orb.NewLoopback(adapter)),
	}, nil
}

// NewBaselineTCP creates a baseline whose client and server speak IIOP
// over a real TCP loopback socket.
func NewBaselineTCP(objectKey string, servant Servant) (*Baseline, error) {
	adapter := orb.NewAdapter()
	if err := adapter.Register(objectKey, servant); err != nil {
		return nil, err
	}
	srv, err := orb.NewTCPServer("127.0.0.1:0", adapter)
	if err != nil {
		return nil, err
	}
	trans, err := orb.DialTCP(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("baseline: dial: %w", err)
	}
	return &Baseline{
		adapter: adapter,
		orb:     orb.New(trans),
		server:  srv,
		tcp:     trans,
	}, nil
}

// Object returns a stub for the hosted object.
func (b *Baseline) Object(objectKey string) *Object { return b.orb.ObjRef(objectKey) }

// Close releases TCP resources (no-op for the loopback baseline).
func (b *Baseline) Close() {
	if b.tcp != nil {
		b.tcp.Close()
	}
	if b.server != nil {
		b.server.Close()
	}
}
