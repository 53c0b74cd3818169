// Package transport provides the connection substrates of the grid
// (paper layer 1 plus the SSL sublayer):
//
//   - TCP for real deployments,
//   - TLS-over-anything for the encrypted inter-site channels, with
//     certificates issued by the grid CA (package ca),
//   - an in-memory network for tests and the multi-site simulator,
//   - a Link that puts a site-to-site delay and rate between the two ends
//     of any of them.
//
// All transports implement the Network interface so the proxy, the MPI
// runtime, and the baseline comparator are transport-agnostic. The TLS
// transport instruments ciphertext volume and handshake counts, which is
// what experiment E2 (edge tunneling vs per-node security) measures.
package transport

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"time"

	"gridproxy/internal/ca"
	"gridproxy/internal/metrics"
)

// Network can both listen and dial. Addresses are strings whose meaning is
// transport-specific ("host:port" for TCP, arbitrary labels for the
// in-memory network).
type Network interface {
	// Listen binds a listener at addr.
	Listen(addr string) (net.Listener, error)
	// Dial connects to addr, honouring ctx cancellation.
	Dial(ctx context.Context, addr string) (net.Conn, error)
}

// ErrClosed is returned by transport operations after Close.
var ErrClosed = errors.New("transport: closed")

// errNoHalfClose is returned by CloseWrite for a connection that cannot
// half-close.
var errNoHalfClose = errors.New("transport: connection cannot half-close")

// CloseWrite half-closes conn if it supports it (TCP, TLS, tunnel
// streams, and wrappers that forward the call): the peer reads EOF while
// the other direction stays open.
func CloseWrite(conn net.Conn) error {
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return errNoHalfClose
}

// --- TCP -----------------------------------------------------------------

// TCP is the plain TCP network. The zero value is ready to use.
type TCP struct{}

var _ Network = TCP{}

// Listen implements Network.
func (TCP) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp listen %s: %w", addr, err)
	}
	return ln, nil
}

// Dial implements Network.
func (TCP) Dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp dial %s: %w", addr, err)
	}
	return conn, nil
}

// --- TLS -----------------------------------------------------------------

// TLS wraps an inner Network with mutually-authenticated TLS. Peer
// certificates must chain to the grid CA pool. Because grid addresses are
// site labels rather than DNS names, hostname verification is replaced by
// chain verification against the CA (the paper's host-authentication
// requirement); the peer's certificate CommonName is exposed to acceptors
// via PeerCommonName.
type TLS struct {
	inner Network
	cred  *ca.Credential
	roots *x509.CertPool
	reg   *metrics.Registry

	// HandshakeTimeout bounds the server-side handshake performed inside
	// Accept. Without it a client that connects and never speaks TLS
	// would block the accept loop forever. Zero means
	// DefaultHandshakeTimeout.
	HandshakeTimeout time.Duration
}

// DefaultHandshakeTimeout is the accept-side TLS handshake bound used
// when TLS.HandshakeTimeout is zero.
const DefaultHandshakeTimeout = 10 * time.Second

var _ Network = (*TLS)(nil)

// NewTLS builds a TLS network on top of inner using the host credential
// cred, trusting certificates that chain to roots. reg may be nil.
func NewTLS(inner Network, cred *ca.Credential, roots *x509.CertPool, reg *metrics.Registry) *TLS {
	return &TLS{inner: inner, cred: cred, roots: roots, reg: reg}
}

// verifyPeer checks the presented chain against the grid CA roots. It is
// used instead of the default hostname-based verification because grid
// peers are identified by certificate, not by DNS name.
func (t *TLS) verifyPeer(rawCerts [][]byte, _ [][]*x509.Certificate) error {
	if len(rawCerts) == 0 {
		return errors.New("transport: peer presented no certificate")
	}
	leaf, err := x509.ParseCertificate(rawCerts[0])
	if err != nil {
		return fmt.Errorf("transport: parse peer certificate: %w", err)
	}
	intermediates := x509.NewCertPool()
	for _, raw := range rawCerts[1:] {
		cert, err := x509.ParseCertificate(raw)
		if err != nil {
			return fmt.Errorf("transport: parse peer intermediate: %w", err)
		}
		intermediates.AddCert(cert)
	}
	_, err = leaf.Verify(x509.VerifyOptions{
		Roots:         t.roots,
		Intermediates: intermediates,
		KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	})
	if err != nil {
		return fmt.Errorf("transport: peer certificate rejected: %w", err)
	}
	return nil
}

func (t *TLS) serverConfig() *tls.Config {
	return &tls.Config{
		Certificates:          []tls.Certificate{t.cred.TLSCertificate()},
		ClientAuth:            tls.RequireAnyClientCert,
		MinVersion:            tls.VersionTLS12,
		VerifyPeerCertificate: t.verifyPeer,
	}
}

func (t *TLS) clientConfig() *tls.Config {
	return &tls.Config{
		Certificates: []tls.Certificate{t.cred.TLSCertificate()},
		MinVersion:   tls.VersionTLS12,
		// Chain verification happens in VerifyPeerCertificate against
		// the grid CA; hostname verification is deliberately skipped
		// because grid addresses are not DNS identities.
		InsecureSkipVerify:    true,
		VerifyPeerCertificate: t.verifyPeer,
	}
}

// Listen implements Network. Accepted connections complete their handshake
// lazily on first read/write; use HandshakeConn to force it eagerly.
func (t *TLS) Listen(addr string) (net.Listener, error) {
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tlsListener{Listener: ln, t: t}, nil
}

type tlsListener struct {
	net.Listener
	t *TLS
}

func (l *tlsListener) Accept() (net.Conn, error) {
	raw, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	counted := Instrument(raw,
		l.t.reg.Counter(metrics.BytesEncrypted),
		l.t.reg.Counter(metrics.BytesEncrypted))
	conn := tls.Server(counted, l.t.serverConfig())
	timeout := l.t.HandshakeTimeout
	if timeout <= 0 {
		timeout = DefaultHandshakeTimeout
	}
	_ = raw.SetDeadline(time.Now().Add(timeout))
	if err := conn.Handshake(); err != nil {
		_ = raw.Close()
		return nil, fmt.Errorf("transport: tls accept handshake: %w", err)
	}
	_ = raw.SetDeadline(time.Time{})
	l.t.reg.Counter(metrics.TLSHandshakes).Inc()
	return conn, nil
}

// Dial implements Network and performs the TLS handshake before returning.
func (t *TLS) Dial(ctx context.Context, addr string) (net.Conn, error) {
	raw, err := t.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	counted := Instrument(raw,
		t.reg.Counter(metrics.BytesEncrypted),
		t.reg.Counter(metrics.BytesEncrypted))
	conn := tls.Client(counted, t.clientConfig())
	if err := conn.HandshakeContext(ctx); err != nil {
		_ = raw.Close()
		return nil, fmt.Errorf("transport: tls dial handshake %s: %w", addr, err)
	}
	t.reg.Counter(metrics.TLSHandshakes).Inc()
	return conn, nil
}

// PeerCommonName extracts the certificate CommonName of the remote end of a
// TLS connection, or "" if conn is not TLS or no certificate was presented.
func PeerCommonName(conn net.Conn) string {
	tc, ok := conn.(*tls.Conn)
	if !ok {
		return ""
	}
	state := tc.ConnectionState()
	if len(state.PeerCertificates) == 0 {
		return ""
	}
	return state.PeerCertificates[0].Subject.CommonName
}

// --- instrumentation ------------------------------------------------------

// countingConn counts bytes crossing a connection.
type countingConn struct {
	net.Conn
	in, out *metrics.Counter
}

// Instrument wraps conn so bytes read increment in and bytes written
// increment out. Nil counters are valid and discard counts.
func Instrument(conn net.Conn, in, out *metrics.Counter) net.Conn {
	return &countingConn{Conn: conn, in: in, out: out}
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}
