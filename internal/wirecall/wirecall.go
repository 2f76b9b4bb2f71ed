// Package wirecall gives the module's router the round trip of
// ann/client in wire form. A routed kNN leg keeps the shard's decoded
// []wire.Neighbor, adds the shard's id base in place and merges it,
// where the typed client would convert every neighbor to ann.Neighbor
// and the router would copy it back. Exporting that call from ann/client
// would make it a second public client API, so ann/client installs it
// here when it is initialised instead.
package wirecall

import (
	"context"

	"allnn/internal/wire"
)

// RoundTrip performs one non-streaming request on c, which must be an
// *ann/client.Client, and returns the decoded KindResult body. It obeys
// the client's rules: one request at a time, typed server errors as
// *wire.Error, a transport error ending the connection.
var RoundTrip func(c any, ctx context.Context, op wire.Op, body wire.Message) (wire.Message, error)
