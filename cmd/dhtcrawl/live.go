package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"cgn/internal/crawler"
	"cgn/internal/dataset"
	"cgn/internal/krpc"
	"cgn/internal/netaddr"
	"cgn/internal/routing"
)

// udpTransport adapts a real UDP socket to crawler.Transport for live
// crawls of the mainline DHT. Requires network access; the offline test
// suite never exercises it.
type udpTransport struct {
	conn *net.UDPConn
	buf  []byte
}

func newUDPTransport() (*udpTransport, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{Port: 6881})
	if err != nil {
		// 6881 taken: let the OS pick.
		conn, err = net.ListenUDP("udp4", nil)
		if err != nil {
			return nil, err
		}
	}
	return &udpTransport{conn: conn, buf: make([]byte, 2048)}, nil
}

func (u *udpTransport) Send(dst netaddr.Endpoint, payload []byte) {
	raddr := &net.UDPAddr{IP: net.IP(dst.Addr.Bytes()), Port: int(dst.Port)}
	u.conn.WriteToUDP(payload, raddr)
}

func (u *udpTransport) Endpoint() netaddr.Endpoint {
	la := u.conn.LocalAddr().(*net.UDPAddr)
	ip := la.IP.To4()
	if ip == nil {
		ip = net.IPv4zero.To4()
	}
	addr, _ := netaddr.AddrFromBytes(ip)
	return netaddr.EndpointOf(addr, uint16(la.Port))
}

func (u *udpTransport) Poll(fn func(from netaddr.Endpoint, data []byte) bool, wait time.Duration) {
	deadline := time.Now().Add(wait)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return
		}
		u.conn.SetReadDeadline(deadline)
		n, from, err := u.conn.ReadFromUDP(u.buf)
		if err != nil {
			return // deadline or transient error: the datagram is lost, as UDP promises
		}
		ip := from.IP.To4()
		if ip == nil {
			continue
		}
		addr, _ := netaddr.AddrFromBytes(ip)
		// fn reads the datagram before it returns, so the read buffer
		// serves every datagram.
		if fn(netaddr.EndpointOf(addr, uint16(from.Port)), u.buf[:n]) {
			return
		}
	}
}

// runLive crawls the real mainline DHT from this machine. bootstraps is a
// comma-free list of ip:port seeds (e.g. a resolved router.bittorrent.com
// address); routesPath optionally maps addresses to ASes for the
// clustering step.
func runLive(bootstraps []string, routesPath, outPath string, maxPeers int) {
	tr, err := newUDPTransport()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dhtcrawl: %v\n", err)
		os.Exit(1)
	}
	global := routing.NewGlobal()
	if routesPath != "" {
		g, err := dataset.LoadRoutes(routesPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dhtcrawl: %v\n", err)
			os.Exit(1)
		}
		global = g
	} else {
		fmt.Fprintln(os.Stderr, "dhtcrawl: warning: no -routes snapshot; leak records will carry AS 0")
	}

	cfg := crawler.DefaultConfig()
	cfg.MaxPeers = maxPeers
	cfg.CallTimeout = 1500 * time.Millisecond
	var id krpc.NodeID
	rand.New(rand.NewSource(time.Now().UnixNano())).Read(id[:])
	cfg.ID = id

	cr := crawler.NewWithTransport(tr, global, cfg)
	for _, b := range bootstraps {
		ep, err := netaddr.ParseEndpoint(b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dhtcrawl: bad bootstrap %q: %v\n", b, err)
			os.Exit(2)
		}
		cr.Seed(ep)
	}
	fmt.Printf("live crawl from %v, budget %d peers...\n", tr.Endpoint(), maxPeers)
	ds := cr.Run()
	fmt.Printf("crawl: %d peers queried, %d learned, %d ping-responded, %d leak records\n",
		len(ds.Queried), len(ds.Learned), len(ds.PingResponded), len(ds.Leaks))
	if outPath != "" {
		if err := dataset.SaveCrawl(outPath, ds); err != nil {
			fmt.Fprintf(os.Stderr, "dhtcrawl: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("dataset written to %s\n", outPath)
	}
}
