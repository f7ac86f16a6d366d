package core

import (
	"time"

	"immune/internal/ids"
	"immune/internal/interceptor"
	"immune/internal/orb"
	"immune/internal/replication"
)

// The application-facing handles. They hide the Replication Manager's
// replication.Handle (whose Invoke takes a target group and a raw IIOP
// request) and the interceptor behind CORBA-shaped calls.

// Replica is the application handle on one local replica.
type Replica struct {
	h *replication.Handle
}

// ID returns the replica identity.
func (r *Replica) ID() ids.ReplicaID { return r.h.Replica() }

// Active reports whether the replica has been admitted to its group.
func (r *Replica) Active() bool { return r.h.Active() }

// WaitActive blocks until the replica activates or the timeout expires.
func (r *Replica) WaitActive(timeout time.Duration) error { return r.h.WaitActive(timeout) }

// Leave withdraws the replica from its object group (planned maintenance,
// as opposed to fault-driven exclusion). The group's degree drops and
// voting thresholds adjust at every Replication Manager consistently.
func (r *Replica) Leave() error { return r.h.Leave() }

// Client is a replicated CORBA client: an ORB whose transport is the
// Immune interceptor plus the local client replica identity.
type Client struct {
	orb     *orb.ORB
	ic      *interceptor.Interceptor
	replica *Replica
}

// Replica returns the client's local replica handle.
func (c *Client) Replica() *Replica { return c.replica }

// Bind maps a CORBA object key to the server group implementing it.
func (c *Client) Bind(objectKey string, g ids.ObjectGroupID) { c.ic.Bind(objectKey, g) }

// Object returns an object reference (stub) for a bound object key.
func (c *Client) Object(objectKey string) *Object { return c.orb.ObjRef(objectKey) }

// Object is a client-side object reference — the ORB's stub. Through a
// Client its Invoke, InvokeDeadline (a zero deadline means
// now+CallTimeout; the Replication Manager splits the remaining time
// across the configured retries) and InvokeOneWay are replicated and
// majority-voted.
type Object = orb.ObjRef
