package forecast

import (
	"robustscale/internal/obs"
)

// Training and sampling instruments, registered on the process-wide
// registry. All updates are per-epoch or per-prediction-call — never
// per-element — so their cost is invisible next to the work they count.
var (
	obsTrainEpochs = obs.Default.CounterVec(
		"robustscale_forecast_train_epochs_total",
		"Completed training epochs, by model.",
		"model")
	obsDeepAREpochs = obsTrainEpochs.With("deepar")
	obsTFTEpochs    = obsTrainEpochs.With("tft")

	obsMCPaths = obs.Default.Counter(
		"robustscale_forecast_mc_paths_total",
		"Monte-Carlo sample paths drawn by DeepAR quantile prediction.")

	obsPredictions = obs.Default.CounterVec(
		"robustscale_forecast_predictions_total",
		"Quantile prediction calls, by model.",
		"model")
)
