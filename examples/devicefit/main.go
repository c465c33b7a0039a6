// Devicefit: a tour of the latency substrate and the Table II compression
// techniques. It prints the calibrated per-device latency of the model zoo,
// fits the transfer model from synthetic measurements (the Fig. 5 workflow),
// and shows what each compression technique does to VGG11's MACCs, parameter
// count and estimated accuracy.
//
// Run with:
//
//	go run ./examples/devicefit
package main

import (
	"fmt"
	"math/rand"
	"os"

	"cadmc/internal/accuracy"
	"cadmc/internal/compress"
	"cadmc/internal/latency"
	"cadmc/internal/nn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "devicefit:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Device calibration: the model zoo on each platform.
	fmt.Println("model zoo latency by device (CIFAR-scale input):")
	devices := []latency.Device{latency.Phone(), latency.TX2(), latency.CloudServer()}
	models := []string{"VGG11", "VGG19", "AlexNet"}
	fmt.Printf("%-10s", "")
	for _, d := range devices {
		fmt.Printf(" %14s", d.Name)
	}
	fmt.Println()
	for _, name := range models {
		m, err := nn.Zoo(name, nn.CIFARInput, nn.CIFARClasses)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s", name)
		for _, d := range devices {
			ms, err := latency.ModelMS(m, d)
			if err != nil {
				return err
			}
			fmt.Printf(" %12.2fms", ms)
		}
		fmt.Println()
	}

	// 2. Transfer-model calibration (the Fig. 5 right-hand side).
	rng := rand.New(rand.NewSource(7))
	truth := latency.TransferModel{RTTMS: 22, Overhead: 0.2}
	samples := make([]latency.TransferSample, 0, 250)
	for i := 0; i < 250; i++ {
		size := int64(rng.Intn(256*1024)) + 512
		bw := rng.Float64()*8 + 0.4
		samples = append(samples, latency.TransferSample{
			SizeBytes:     size,
			BandwidthMbps: bw,
			MeasuredMS:    truth.MS(size, bw) * (1 + rng.NormFloat64()*0.06),
		})
	}
	fitted, r2, err := latency.FitTransferModel(samples)
	if err != nil {
		return err
	}
	fmt.Printf("\ntransfer model fit: RTT %.1f ms (truth %.1f), overhead %.3f (truth %.3f), R² %.4f\n",
		fitted.RTTMS, truth.RTTMS, fitted.Overhead, truth.Overhead, r2)

	// 3. The compression technique catalogue applied to VGG11.
	fmt.Println("\ncompression techniques on VGG11 (first applicable site):")
	base := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	baseMACCs, err := base.MACCs()
	if err != nil {
		return err
	}
	baseParams, err := base.Params()
	if err != nil {
		return err
	}
	oracle := accuracy.New()
	baseAcc, err := oracle.Evaluate(base, false)
	if err != nil {
		return err
	}
	phone := latency.Phone()
	baseMS, err := latency.ModelMS(base, phone)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %10.1fM %10.1fM %9.2fms %8.2f%%\n",
		"base VGG11", float64(baseMACCs)/1e6, float64(baseParams)/1e6, baseMS, baseAcc)
	for _, tech := range compress.Catalog() {
		if tech.ID == compress.None {
			continue
		}
		site := -1
		for i := range base.Layers {
			if tech.Applicable(base, i) {
				site = i
				break
			}
		}
		if site == -1 {
			fmt.Printf("%-22s (no applicable site)\n", tech.ID)
			continue
		}
		out, err := tech.Apply(base, site)
		if err != nil {
			return err
		}
		maccs, err := out.MACCs()
		if err != nil {
			return err
		}
		params, err := out.Params()
		if err != nil {
			return err
		}
		ms, err := latency.ModelMS(out, phone)
		if err != nil {
			return err
		}
		acc, err := oracle.Evaluate(out, true)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %10.1fM %10.1fM %9.2fms %8.2f%%   (layer %d)\n",
			tech.ID, float64(maccs)/1e6, float64(params)/1e6, ms, acc, site)
	}
	fmt.Println("\ncolumns: MACCs, params, phone latency, estimated accuracy after distillation")
	return nil
}
