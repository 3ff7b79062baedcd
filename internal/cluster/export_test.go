package cluster

// RendezvousGroup is the router's placement rule, for the package's
// external tests to predict where a tenant lands.
var RendezvousGroup = rendezvous
