package experiments

import (
	"gridproxy/internal/baseline"
)

// e6Row is one (architecture, grid shape) deployment-footprint row.
type e6Row struct {
	Arch         string
	Sites        int
	NodesPerSite int
	Footprint    baseline.DeploymentFootprint
}

// e6Config parameterizes experiment E6.
type e6Config struct {
	Shapes [][2]int
}

// e6 quantifies the paper's deployability claim: "The strong points of
// the architecture are its transparency, simple use and low interference
// in the installed base" and "apart from the MPI and the introduction of
// a proxy server at the sites, the installation of an additional module
// at the client is unnecessary". The proxy architecture installs one
// module and one certificate per site; the per-node baseline needs one of
// each on every node.
func e6(cfg e6Config) (Table, error) {
	t := Table{
		Title:  "E6 — deployment footprint (installed modules, certificates, config touchpoints)",
		Claim:  "low interference in the installed base: grid software only at site borders",
		Header: []string{"arch", "sites", "nodes/site", "modules", "certs", "config_touchpoints"},
	}
	var rows []e6Row
	for _, shape := range cfg.Shapes {
		sites, nodes := shape[0], shape[1]
		rows = append(rows,
			e6Row{Arch: "proxy", Sites: sites, NodesPerSite: nodes,
				Footprint: baseline.ProxyFootprint(sites, nodes)},
			e6Row{Arch: "per-node", Sites: sites, NodesPerSite: nodes,
				Footprint: baseline.BaselineFootprint(sites, nodes)},
		)
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Arch, itoa(r.Sites), itoa(r.NodesPerSite),
			itoa(r.Footprint.ModulesInstalled),
			itoa(r.Footprint.CertificatesIssued),
			itoa(r.Footprint.ConfigTouchpoints),
		})
	}
	// One module per site for the proxy, one per node for the baseline.
	t.Bars = []Bar{
		check("rows", len(rows), "==", 2*len(cfg.Shapes)),
		check("rows with modules = sites (proxy) or sites x nodes/site (per-node)", count(rows, func(r e6Row) bool {
			want := r.Sites
			if r.Arch == "per-node" {
				want *= r.NodesPerSite
			}
			return r.Footprint.ModulesInstalled == want
		}), "==", len(rows)),
	}
	return t, nil
}
