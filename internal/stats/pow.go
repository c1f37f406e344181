package stats

import "math"

// Pow returns math.Pow(x, y), bit for bit, about twice as fast for the
// arguments a Weibull draw passes: a normal positive x and an exponent
// 0 < y < 1 other than 0.5.
//
// For those arguments math.Pow takes one fixed path (math/pow.go). The
// integer part of y is 0, so the fractional part is y itself, and:
//
//   - y < 0.5: the result is Ldexp(Exp(y·Log(x)), 0). For a normal x,
//     Exp(y·Log(x)) lies in [2^-511, 2^512], a normal number that Ldexp
//     by 0 returns unchanged.
//   - y > 0.5: y is folded to y−1 with one integer power left, so the
//     result is Ldexp(a·f, e) with a = Exp((y−1)·Log(x)) and x = f·2^e
//     (Frexp). Since y < 1 the result lies between x and 1, so for a
//     normal x it is normal too, and scaling by 2^e commutes with the
//     rounding of the product: Ldexp(round(a·f), e) = round(a·x).
//
// Pow computes those expressions directly, skipping the special-case
// switch, Modf, Frexp and Ldexp. Exp and Log are the same functions
// math.Pow calls, so the results agree exactly; x = 1, which math.Pow
// answers early with 1, gives Exp(±0) = 1 here. Every other argument —
// x = 0 (which the exponential variate underneath a Weibull draw can
// be), subnormal, infinite or NaN x, negative x, and y outside (0, 1)
// or equal to 0.5 — goes to math.Pow itself. A subnormal x would break
// the y > 0.5 argument: a subnormal result is rounded twice by
// math.Pow, once by the product here.
func Pow(x, y float64) float64 {
	if !(x >= minNormal && x <= math.MaxFloat64 && y > 0 && y < 1) || y == 0.5 {
		return math.Pow(x, y)
	}
	if y < 0.5 {
		return math.Exp(y * math.Log(x))
	}
	return math.Exp((y-1)*math.Log(x)) * x
}

// minNormal is the smallest positive normal float64, 2^-1022.
const minNormal = 0x1p-1022
