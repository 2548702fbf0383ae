package topology

// SetCostBudget replaces g's cost-store budget (CostBudget) for tests in
// other packages of this directory.
func (g *Grid) SetCostBudget(bytes int64) { g.costs.budget = bytes }
