package fleet

// PriorityClass ranks tenants for admission control: when aggregate
// demand exceeds the shared pool, lower classes shed first and a higher
// class is only clipped after every lower class is fully zeroed.
type PriorityClass int

const (
	// ClassGuaranteed tenants shed last: their demand survives until the
	// pool cannot cover guaranteed demand alone.
	ClassGuaranteed PriorityClass = iota
	// ClassBurstable tenants shed after best-effort is exhausted.
	ClassBurstable
	// ClassBestEffort tenants shed first.
	ClassBestEffort
)

// String names the class for reports and journal entries.
func (c PriorityClass) String() string {
	switch c {
	case ClassGuaranteed:
		return "guaranteed"
	case ClassBurstable:
		return "burstable"
	case ClassBestEffort:
		return "best-effort"
	default:
		return "unknown"
	}
}

// ClassOf assigns priority classes round-robin by tenant index —
// guaranteed, burstable, best-effort, repeating — so every fleet mixes
// all three tiers deterministically.
func ClassOf(index int) PriorityClass {
	if index < 0 {
		index = -index
	}
	return PriorityClass(index % 3)
}

// maxDemand bounds per-tenant demand and pool capacity inside admitStep
// so the largest-remainder arithmetic (demand * target) cannot overflow
// int64 even on adversarial fuzz inputs.
const maxDemand = 1 << 30

// admitStep is the deterministic admission controller for one replay
// step: given each tenant's demanded node count, its priority class and
// the pool capacity, it returns the admitted allocation per tenant,
// written into out (grown as needed).
//
// Invariants, fuzz-asserted by FuzzAdmission:
//
//   - sum(admitted) <= capacity (capacity < 0 treated as 0)
//   - 0 <= admitted[i] <= max(demands[i], 0) for every i
//   - under-capacity demand passes through untouched
//   - priority ordering: if any tenant of class c was clipped, every
//     class lower than c was shed to zero first
//
// Within the first class that is partially shed, the reduction is a
// proportional fair share via the largest-remainder method: floors of
// demand*target/classTotal, with the leftover nodes going to the largest
// fractional remainders (ties to the lower index), so the split is a
// pure function of the inputs.
//
// out keeps 2n ints past its length as the split's scratch, so a caller
// that passes the last result back allocates nothing.
func admitStep(demands []int, classes []PriorityClass, capacity int, out []int) []int {
	n := len(demands)
	if cap(out) < 3*n {
		out = make([]int, n, 3*n)
	}
	out = out[:n]
	capacity = min(max(capacity, 0), maxDemand)
	total := 0
	for i, d := range demands {
		d = min(max(d, 0), maxDemand)
		out[i] = d
		total += d
	}
	if total <= capacity {
		return out
	}
	shed := total - capacity
	// Shed lowest-priority classes first; iterating the classes in
	// reverse rank order keeps the ordering invariant by construction.
	for class := ClassBestEffort; class >= ClassGuaranteed && shed > 0; class-- {
		classTotal := 0
		for i := range out {
			if classes[i] == class {
				classTotal += out[i]
			}
		}
		if classTotal == 0 {
			continue
		}
		if shed >= classTotal {
			// The whole class goes dark.
			for i := range out {
				if classes[i] == class {
					out[i] = 0
				}
			}
			shed -= classTotal
			continue
		}
		// Partial shed: largest-remainder proportional split to the
		// reduced class total.
		target := classTotal - shed
		// rems[i] is member i's remainder; members lists them in grant order.
		rems, members := out[n:2*n], out[2*n:2*n]
		granted := 0
		for i := range out {
			if classes[i] != class || out[i] == 0 {
				continue
			}
			num := int64(out[i]) * int64(target)
			floor := int(num / int64(classTotal))
			out[i] = floor
			granted += floor
			rems[i] = int(num % int64(classTotal))
			members = append(members, i)
		}
		k := min(target-granted, len(members))
		selectTop(members, rems, k)
		for _, i := range members[:k] {
			out[i]++
		}
		shed = 0
	}
	return out
}

// selectTop reorders members so that its first k are the k largest by
// remainder, ties to the lower index: a quickselect, in place. That order
// is total, so the k are the ones sorting all of members would put first.
func selectTop(members, rems []int, k int) {
	lo, hi := 0, len(members)
	for hi-lo > 1 {
		m := lo + (hi-lo)/2
		members[m], members[hi-1] = members[hi-1], members[m]
		p, q := members[hi-1], lo
		for i := lo; i < hi-1; i++ {
			if a := members[i]; rems[a] > rems[p] || rems[a] == rems[p] && a < p {
				members[i], members[q] = members[q], a
				q++
			}
		}
		members[q], members[hi-1] = p, members[q] // members[:q] precede p
		if k < q {
			hi = q
		} else if k > q+1 {
			lo = q + 1
		} else {
			return
		}
	}
}
