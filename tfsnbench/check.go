package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"slices"
	"strings"

	"repro/internal/compat"
	"repro/internal/sgraph"
	"repro/internal/skills"
	"repro/internal/team"
)

// reply is tfsnd's /form answer (and one /formtopk team).
type reply struct {
	Found      bool            `json:"found"`
	Members    []sgraph.NodeID `json:"members"`
	Cost       int32           `json:"cost"`
	Infeasible bool            `json:"infeasible"`
}

// topkReply is tfsnd's /formtopk answer.
type topkReply struct {
	Found bool    `json:"found"`
	Teams []reply `json:"teams"`
}

// expect is a reference answer: found, the member set (sorted) and the
// cost.
type expect struct {
	found   bool
	members []sgraph.NodeID
	cost    int32
}

// expectOf turns a solver answer into an expect; ErrNoTeam (including
// infeasible constraints) is the valid "not found" answer.
func expectOf(tm *team.Team, err error) (expect, error) {
	if errors.Is(err, team.ErrNoTeam) {
		return expect{}, nil
	}
	if err != nil {
		return expect{}, err
	}
	return expect{found: true, members: sortedIDs(tm.Members), cost: tm.Cost}, nil
}

func sortedIDs(xs []sgraph.NodeID) []sgraph.NodeID {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// check compares an answer with the reference: same found, same member
// set, same cost. It returns "" when they agree.
func (e expect) check(found bool, members []sgraph.NodeID, cost int32) string {
	if found != e.found {
		return fmt.Sprintf("found=%v, want %v", found, e.found)
	}
	if !found {
		return ""
	}
	if got := sortedIDs(members); !slices.Equal(got, e.members) || cost != e.cost {
		return fmt.Sprintf("team %v cost %d, want %v cost %d", got, cost, e.members, e.cost)
	}
	return ""
}

// checkTeam checks the properties every answer must have whatever the
// graph epoch: distinct members that cover the task, every required
// member present and no excluded one.
func checkTeam(a *skills.Assignment, t skills.Task, members, include, exclude []sgraph.NodeID) string {
	if len(members) == 0 {
		return "found team has no members"
	}
	s := sortedIDs(members)
	if len(slices.Compact(s)) != len(members) {
		return fmt.Sprintf("team %v repeats a member", members)
	}
	for _, u := range members {
		if u < 0 || int(u) >= a.NumUsers() {
			return fmt.Sprintf("member %d out of range", u)
		}
	}
	if !a.Covers(members, t) {
		return fmt.Sprintf("team %v does not cover task %v", members, t)
	}
	for _, u := range include {
		if !slices.Contains(members, u) {
			return fmt.Sprintf("team %v misses required member %d", members, u)
		}
	}
	for _, u := range exclude {
		if slices.Contains(members, u) {
			return fmt.Sprintf("team %v contains excluded member %d", members, u)
		}
	}
	return ""
}

// checkFormBody decodes a /form body and checks it with checkTeam.
func checkFormBody(body []byte, a *skills.Assignment, t skills.Task, include, exclude []sgraph.NodeID) string {
	var rp reply
	if err := json.Unmarshal(body, &rp); err != nil {
		return fmt.Sprintf("undecodable /form body: %v", err)
	}
	if !rp.Found {
		return ""
	}
	return checkTeam(a, t, rp.Members, include, exclude)
}

// checkTopKBody decodes a /formtopk body: at most k teams, each valid.
func checkTopKBody(body []byte, a *skills.Assignment, t skills.Task, k int) string {
	var rp topkReply
	if err := json.Unmarshal(body, &rp); err != nil {
		return fmt.Sprintf("undecodable /formtopk body: %v", err)
	}
	if len(rp.Teams) > k || (rp.Found && len(rp.Teams) == 0) {
		return fmt.Sprintf("%d teams for k=%d (found=%v)", len(rp.Teams), k, rp.Found)
	}
	for _, tm := range rp.Teams {
		if why := checkTeam(a, t, tm.Members, nil, nil); why != "" {
			return why
		}
	}
	return ""
}

// oracle answers unconstrained LCMD tasks on an engine independent of
// the one under test: the lazy relation, which the engine-agreement
// suites pin to the packed engines.
type oracle struct {
	solver *team.Solver
}

func newOracle(g *sgraph.Graph, a *skills.Assignment, cacheRows int) (*oracle, error) {
	rel, err := compat.New(compat.SPO, g, compat.Options{CacheCap: cacheRows})
	if err != nil {
		return nil, err
	}
	return &oracle{solver: team.NewSolver(rel, a, team.SolverOptions{Workers: 1})}, nil
}

func (o *oracle) answer(t skills.Task) (expect, error) {
	return expectOf(o.solver.Form(t, lcmd))
}

// Request targets, spelled as tfsnd parses them.

func taskParam(u *skills.Universe, t skills.Task) string {
	names := make([]string, len(t))
	for i, s := range t {
		names[i] = url.QueryEscape(u.Name(s))
	}
	return strings.Join(names, ",")
}

func idList(ids []sgraph.NodeID) string {
	parts := make([]string, len(ids))
	for i, v := range ids {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func formTarget(u *skills.Universe, t skills.Task, include, exclude []sgraph.NodeID) string {
	s := "/form?task=" + taskParam(u, t)
	if len(include) > 0 {
		s += "&include=" + idList(include)
	}
	if len(exclude) > 0 {
		s += "&exclude=" + idList(exclude)
	}
	return s
}

func topkTarget(u *skills.Universe, t skills.Task) string {
	return fmt.Sprintf("/formtopk?task=%s&k=%d&lambda=%g", taskParam(u, t), topkK, topkLambda)
}

func mutateTarget(m sgraph.Mutation) string {
	return fmt.Sprintf("/mutate?mut=flip:%d:%d", m.U, m.V)
}
