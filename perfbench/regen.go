package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"cpsinw/internal/dict"
	"cpsinw/internal/service"
)

// runDirect runs a campaign in-process on the given engine ("" is the
// service default), optionally capturing its dictionary into ds.
func runDirect(req service.CampaignRequest, engine string, ds *dict.Store) (*service.CampaignReport, string, error) {
	req.Engine = engine
	norm, c, err := req.Normalize()
	if err != nil {
		return nil, "", err
	}
	key := service.CanonicalKey(c, norm)
	var ro *service.RunObserver
	if ds != nil {
		ro = &service.RunObserver{Dict: ds, DictKey: key}
	}
	rep, err := service.RunCampaignObserved(context.Background(), c, norm, ro)
	return rep, key, err
}

// expectCampaign runs op o on the default engine and on the packed
// engine, requires both to agree and to pass the invariants, and
// returns the expectation.
func expectCampaign(ck *checker, o op, ds *dict.Store) (expectation, string, error) {
	rep, key, err := runDirect(o.Req, "", ds)
	if err != nil {
		return expectation{}, "", err
	}
	packed, _, err := runDirect(o.Req, "packed", nil)
	if err != nil {
		return expectation{}, "", err
	}
	want, got := expectationOf(rep), expectationOf(packed)
	if jsonString(want) != jsonString(got) {
		return expectation{}, "", fmt.Errorf("%s: default engine %s, packed engine %s", o.Label, jsonString(want), jsonString(got))
	}
	return want, key, ck.campaign(o, rep)
}

// regenOracle rewrites the expected-results table for the default seed.
func regenOracle(root string) error {
	orc := &oracle{Seed: defaultSeed, Ops: map[string][]expectation{}}
	dir, err := freshDir(filepath.Join(root, "regen"))
	if err != nil {
		return err
	}
	ds, err := dict.Open(filepath.Join(dir, "dicts"))
	if err != nil {
		return err
	}
	ck := newChecker(wlStore, defaultSeed, nil)
	pop := &population{}
	for _, o := range populationOps() {
		e, key, err := expectCampaign(ck, o, ds)
		if err != nil {
			return err
		}
		orc.Population = append(orc.Population, e)
		pop.keys = append(pop.keys, key)
	}
	if err := pop.loadTargets(ds.Dir()); err != nil {
		return err
	}
	for _, wl := range workloadNames {
		ck := newChecker(wl, defaultSeed, nil)
		exps := make([]expectation, oracleLen[wl])
		errs := make([]error, len(exps))
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(exps); i += clients {
					o := opAt(wl, defaultSeed, i)
					switch o.Kind {
					case opHit:
					case opDiagnose:
						key, ent := pop.target(o)
						d, err := ds.Get(key)
						if err != nil {
							errs[i] = err
							continue
						}
						cands := d.Diagnose(dict.Observation{Out: ent.Out, Leak: ent.Leak}, 5)
						if len(cands) == 0 || cands[0].Class != ent.Class {
							errs[i] = fmt.Errorf("op %d: %s does not rank its own class first", i, ent.Fault)
						}
						exps[i] = expectation{Fault: ent.Fault, Class: ent.Class}
					default:
						exps[i], _, errs[i] = expectCampaign(ck, o, nil)
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("%s: %w", wl, err)
			}
		}
		orc.Ops[wl] = exps
		fmt.Printf("%s: %d ops\n", wl, len(exps))
	}
	return writeOracle(orc)
}
