package hop

import (
	"context"
	"net"
)

// DialWith makes u open its connections with dial instead of TCP.
func DialWith(u *Upstream, dial func(ctx context.Context, addr string) (net.Conn, error)) {
	u.dial = dial
}
