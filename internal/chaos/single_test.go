package chaos

import (
	"context"

	"priview/internal/server"
)

// oneRelease is a fixed one-release server.Resolver: it serves q as the
// release "default", the shape priview-serve's -synopsis mode takes,
// but without the registry's load path and audit gate, so the suite can
// put a slow or poisoned querier behind the real router.
type oneRelease struct{ q server.Querier }

// nopLease is a lease with no bulkhead permit to return.
type nopLease struct{ server.Querier }

func (nopLease) Close() {}

func (o oneRelease) Acquire(_ context.Context, name string) (server.Lease, error) {
	if name != "default" {
		return nil, server.ErrUnknownRelease
	}
	return nopLease{o.q}, nil
}

func (o oneRelease) ReleaseStats(name string) (any, error) {
	if name != "default" {
		return nil, server.ErrUnknownRelease
	}
	return map[string]string{"name": name}, nil
}

func (oneRelease) Releases() []string { return []string{"default"} }

func (oneRelease) Ready() bool { return true }

// serveOne fronts q with the router, aliasing the unprefixed routes to
// its one release.
func serveOne(q server.Querier, opt server.Options) *server.Multi {
	return server.NewMulti(oneRelease{q}, "default", opt)
}
