package pfair

import (
	"desyncpfair/internal/admission"
	"desyncpfair/internal/server"
)

// This file re-exports the pfaird service layer: a multi-tenant scheduling
// service over the online executive (internal/server), its Go client
// (internal/client), and the stateful admission controller backing it.
// The daemon itself is cmd/pfaird; the load generator is cmd/pfairload.

// Server is the pfaird HTTP service: many isolated tenants, each a
// concurrency-safe PD²-DVQ online executive, behind a stdlib net/http
// JSON API with dispatch streaming and a /metrics exposition.
type Server = server.Server

// NewServer creates a pfaird service with an empty tenant registry. Mount
// Handler() on an http.Server and call Shutdown before closing the
// listener so in-flight dispatch streams drain.
func NewServer() *Server { return server.New() }

// Tenant is one tenant of the service: an online executive — which owns the
// tenant's Σwt ≤ M admission ledger — behind a single-writer event loop,
// safe for concurrent use.
type Tenant = server.Tenant

// NewTenant creates a standalone tenant (id, m processors, policy name
// "PD2"/"PD"/"PF"/"EPDF", "" = PD²) without an HTTP server around it —
// the concurrency-safe counterpart of NewExecutive.
func NewTenant(id string, m int, policy string) (*Tenant, error) {
	return server.NewTenant(id, m, policy)
}

// DispatchEvent is one streamed scheduling decision of a tenant.
type DispatchEvent = server.DispatchEvent

// TenantInfo is a point-in-time tenant snapshot (virtual time,
// utilization, dispatch count, max tardiness, admission rejections).
type TenantInfo = server.TenantInfo

// AdmissionController tracks admitted weights against Σwt ≤ M online —
// the stateful counterpart of the analytical admission tests.
type AdmissionController = admission.Controller

// NewAdmissionController creates a controller for m processors.
func NewAdmissionController(m int) *AdmissionController { return admission.NewController(m) }
